(* Root of the observability library: [Obs.sink] and the emit API come
   from [Sink]; [Obs.Metrics] is the counter/histogram registry,
   [Obs.Chrome] the trace_event exporter, [Obs.Fairness] the
   per-tenant goodput-share / Jain-index report, and [Obs.Gate] the
   pass/fail rules scenario reports state over their figures. *)

module Metrics = Metrics
module Chrome = Chrome
module Fairness = Fairness
module Gate = Gate
include Sink
