(** Failure injection with recovery: kill whole NICs or individual NFs
    mid-run, then re-place and re-attest the displaced tenants.

    Two distinct failure shapes, matching the two halves of the paper's
    teardown story:

    - an *NF kill* is an orderly [nf_destroy]: the trusted instruction
      scrubs the function's RAM, and the scrub is verified
      ({!Orchestrator.destroy_verified}) before the tenant is re-placed;
    - a *NIC kill* is hardware death: no teardown runs, every hosted
      function is simply lost, and the survivors' control plane re-places
      the orphaned tenants on the remaining NICs.  Frames a batched
      inject had already queued on the dead NIC's RX rings are drained
      deterministically (ring order) and accounted as tenant drops —
      never silently lost. *)

type report = {
  nics_requested : int; (* the kill_nics budget as asked for *)
  nfs_requested : int; (* the kill_nfs budget as asked for *)
  nics_killed : int list; (* NIC ids taken down *)
  nfs_killed : int list; (* tenant ids whose NF was destroyed *)
  displaced : int; (* tenants that lost their placement *)
  replaced : int; (* ... and were successfully re-placed + re-attested *)
  stranded : int; (* ... and could not be re-placed *)
  scrub_failures : int; (* must stay 0: RAM found non-zero after teardown *)
  in_flight_drained : int; (* frames drained from dead NICs' RX rings *)
}

(** [inject orch rng ~kill_nics ~kill_nfs] — pick victims with [rng]
    (alive NICs; placed tenants not on a NIC killed this round), kill
    them, recover. Victim choice consumes randomness only from [rng], so
    seeded runs replay identically. Budgets exceeding the alive
    population clamp to it (and negative budgets to 0); compare the
    [*_requested] fields with the victim lists to see the clamping. *)
val inject : Orchestrator.t -> Trace.Rng.t -> kill_nics:int -> kill_nfs:int -> report
