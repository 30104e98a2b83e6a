let () =
  Alcotest.run "snic"
    [
      ("bigint", Test_bigint.suite);
      ("crypto", Test_crypto.suite);
      ("net", Test_net.suite);
      ("trace", Test_trace.suite);
      ("nf", Test_nf.suite);
      ("nf-ext", Test_nf_ext.suite);
      ("nicsim", Test_nicsim.suite);
      ("sched", Test_sched.suite);
      ("snic", Test_snic.suite);
      ("snic-ext", Test_snic_ext.suite);
      ("isolation-fuzz", Test_isolation_fuzz.suite);
      ("edge-cases", Test_edge_cases.suite);
      ("properties", Test_properties.suite);
      ("attacks", Test_attacks.suite);
      ("costmodel", Test_costmodel.suite);
      ("memprof", Test_memprof.suite);
      ("uarch", Test_uarch.suite);
      ("repro", Test_repro.suite);
      ("accelfn", Test_accelfn.suite);
      ("fleet", Test_fleet.suite);
      ("faults", Test_faults.suite);
      ("chaos", Test_chaos.suite);
      ("obs", Test_obs.suite);
      ("oracle", Test_oracle.suite);
      ("vf", Test_vf.suite);
      ("qos", Test_qos.suite);
      ("ddos", Test_ddos.suite);
      ("fabric", Test_fabric.suite);
      ("par", Test_par.suite);
      ("scenarios", Test_scenarios.suite);
    ]
