(** A virtual smart NIC, from the owning function's point of view.

    After nf_launch the function owns a set of cores, a RAM reservation,
    a virtual packet pipeline and possibly accelerator clusters. This
    module is the runtime the function's code executes against: every
    memory touch is checked by the machine under the function's principal,
    so the isolation tests and attack demos exercise the same path as
    ordinary packet processing. *)

type t

val of_handle : Instructions.t -> Instructions.handle -> t
val handle : t -> Instructions.handle
val id : t -> int

(** {2 Memory, through the function's own eyes} *)

(** Virtual accesses via the locked core TLB (first core). *)
val read_virt : t -> vaddr:int -> len:int -> (string, Nicsim.Machine.fault) result

val write_virt : t -> vaddr:int -> string -> (unit, Nicsim.Machine.fault) result

(** Raw physical accesses — S-NIC permits them only inside the
    function's own pages. *)
val read_phys : t -> paddr:int -> len:int -> (string, Nicsim.Machine.fault) result

val write_phys : t -> paddr:int -> string -> (unit, Nicsim.Machine.fault) result

(** {2 The virtual packet pipeline} *)

(** [rx t] pops the next received frame: (buffer paddr, length). *)
val rx : t -> (int * int) option

val rx_depth : t -> int

(** [rx_packet t] pops and parses, returning the buffer for reuse. *)
val rx_packet : t -> ((Net.Packet.t * int) option, string) result

(** [tx_packet t ~buffer pkt] serializes [pkt] into [buffer] (which must
    be a buffer this NF owns, normally the RX buffer being recycled) and
    hands it to the packet output module. *)
val tx_packet : t -> buffer:int -> Net.Packet.t -> (unit, string) result

(** [drop t ~buffer] recycles a buffer without transmitting. *)
val drop : t -> buffer:int -> unit

(** {2 Accelerator access}

    Requests run only on clusters the function owns (bound by nf_launch
    with a locked TLB bank, §4.3): using an accelerator type the function
    did not reserve is an error. Timing comes from the cluster's thread
    model; functional results come from the in-repo engines (Aho-Corasick
    for DPI, LZ77 for ZIP, P+Q parity for RAID). *)

(** [dpi_submit t ~now ~bytes] runs a request on one of the function's
    DPI clusters; [Error] when it owns none. *)
val dpi_submit : t -> now:int -> bytes:int -> (int, string) result

(** [zip_compress t ~now data] — compress on an owned ZIP cluster;
    returns (compressed, completion time). *)
val zip_compress : t -> now:int -> string -> (string * int, string) result

val zip_decompress : t -> now:int -> string -> (string * int, string) result

(** [raid_encode t ~now blocks] — P+Q parity on an owned RAID cluster. *)
val raid_encode : t -> now:int -> string array -> (Accelfn.Raid.stripe * int, string) result

(** {2 Host DMA}

    Transfers run through the function's per-core DMA bank, whose locked
    TLBs confine the NIC side to the function's RAM and the host side to
    the window the host sanctioned at launch (§4.2). Addresses are
    window-relative: [nic_off] within the function's region, [host_off]
    within the sanctioned window. *)

val dma_to_host : t -> nic_off:int -> host_off:int -> len:int -> (unit, string) result
val dma_from_host : t -> nic_off:int -> host_off:int -> len:int -> (unit, string) result

(** {2 Batch processing} *)

type run_stats = { received : int; forwarded : int; dropped : int; faults : int }

(** [process t nf ~max] drains up to [max] packets from the VPP through
    [nf], transmitting forwards and recycling drops. *)
val process : t -> Nf.Types.t -> max:int -> run_stats
