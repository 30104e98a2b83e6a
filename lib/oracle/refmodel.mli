(** The flat reference model and the violation taxonomy.

    The model is deliberately tiny: a page is [P_free], the NIC OS's, or
    one tenant's, and [allows] re-states each mode's §3.2 access policy
    over that classification in a handful of lines — independent of
    {!Nicsim.Machine}'s TLBs, denylists and secure-world bookkeeping. The
    harness runs every access against both and files any disagreement as
    [Model_mismatch]; accesses both sides *permit* are then judged
    against the single-owner ideal and classified into the §3.3/§4.3
    violation classes. *)

(** Who the model thinks a page belongs to ([P_tenant] holds a harness
    slot index, not an NF id — slots are stable across the run). *)
type page_class = P_free | P_os | P_tenant of int

val class_to_string : page_class -> string

(** The accessing principal, slot-indexed like [page_class]. *)
type who = W_os | W_nf of int

(** [allows ~mode ~who ~owner ~secure ~via_tlb] — the mode's access
    policy, re-implemented flat. [secure] is the model's belief that the
    page is BlueField secure-world memory; [via_tlb] whether the access
    arrived through a (confining) TLB rather than as a raw physical
    address. *)
val allows :
  mode:Nicsim.Machine.mode -> who:who -> owner:page_class -> secure:bool -> via_tlb:bool -> bool

(** What went wrong, in the paper's terms. The first four are the §3.3 /
    §4.3 attack classes (real isolation breaches the mode permitted);
    [Scrub_residue] and [Stale_translation] are lifecycle-hygiene
    breaches (§4.2's scrub-on-teardown and TLB-lock obligations); and
    [Model_mismatch] means machine and model *disagreed* — in a healthy
    tree that class never fires, in any mode. *)
type cls =
  | Cross_tenant_read (* DPI-ruleset-stealing shape: tenant reads another's RAM *)
  | Cross_tenant_write (* packet-corruption shape: tenant/OS writes another's RAM *)
  | Os_read_nf (* the untrusted NIC OS reads a live function's state *)
  | Accel_hijack (* §4.3: reconfiguring another tenant's accelerator cluster *)
  | Scrub_residue (* freed pages still hold a dead tenant's bytes *)
  | Stale_translation (* a TLB entry outlives the region it maps *)
  | Model_mismatch (* machine and reference model disagreed *)

val cls_to_string : cls -> string
val all_classes : cls list

(** [ideal_breach ~who ~owner ~write] classifies a *permitted* access
    against the single-owner ideal: [None] if benign (own pages, or OS
    touching OS/free pages), otherwise the §3.3 class it realizes. *)
val ideal_breach : who:who -> owner:page_class -> write:bool -> cls option

type violation = { step : int; op : Op.t; cls : cls; detail : string }

(** Shrink identity: class plus the op's slot signature — stable across
    subsequences even as NF ids and physical addresses drift. *)
val key : violation -> string

val to_string : violation -> string
