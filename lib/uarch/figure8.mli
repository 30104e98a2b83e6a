(** DPI-accelerator throughput vs thread-cluster size and frame size
    (Figure 8 / Appendix C).

    Sixteen programmable cores generate frames as fast as they can and
    feed a virtual DPI accelerator with 16/32/48 hardware threads; the
    measured quantity is packets per second. Small frames are
    producer-bound (flat in cluster size); jumbo frames are
    accelerator-bound and scale with threads. *)

(** [simulate ?kind ~threads ~frame_bytes ()] returns Mpps at the NIC's
    1.2 GHz clock ([kind] defaults to the paper's DPI engine; ZIP and
    RAID reuse the same harness as an extension). *)
val simulate : ?kind:Nicsim.Accel.kind -> ?packets:int -> threads:int -> frame_bytes:int -> unit -> float

val nic_hz : float
