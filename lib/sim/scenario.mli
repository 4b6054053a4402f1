(** Declarative chaos scenarios with invariant monitors.

    A scenario is a timeline of fault-injection events — crashes,
    restarts, binary and gray link failures, partitions — composed as
    data and executed against a {!R2c2_sim.t}, while {e invariant
    monitors} watch the run and fail it loudly the moment the stack
    violates one of its correctness properties. The robustness test
    suite and the graychaos bench are both written in this DSL.

    Determinism: a scenario adds no RNG draws of its own, so a given
    (config seed, timeline) pair replays the exact same run — including
    under both engine backends. *)

type event =
  | Crash of int  (** state-losing node failure ({!R2c2_sim.crash_node_at}) *)
  | Restart of int  (** cold restart + rejoin protocol *)
  | Fail_link of int * int
  | Restore_link of int * int
  | Flaky of {
      u : int;
      v : int;
      loss : Util.Units.fraction;
      spike : Util.Units.fraction;
    }  (** gray failure: flag the cable as intermittently lossy/slow *)
  | Unflaky of int * int
  | Partition of int list
      (** cut every cable between the vertex set and the rest of the rack *)
  | Heal of int list  (** restore the cables a [Partition] of the set cut *)
  | Surge of Workload.Flowgen.spec list
      (** inject a flow burst — e.g. a {!Workload.Flowgen.partition_aggregate}
          incast — with each spec's [arrival_ns] relative to the step
          instant; flows the simulator's admission control sheds are
          counted, not started *)

type step = { at_ns : int; event : event }

(** {2 Timeline constructors} *)

val crash : at:int -> int -> step
val restart : at:int -> int -> step
val fail_link : at:int -> int -> int -> step
val restore_link : at:int -> int -> int -> step

val flaky : at:int -> int -> int -> loss:Util.Units.fraction -> spike:Util.Units.fraction -> step

val unflaky : at:int -> int -> int -> step
val partition : at:int -> int list -> step
val heal : at:int -> int list -> step
val surge : at:int -> Workload.Flowgen.spec list -> step

(** {2 Invariants} *)

type invariant =
  | Byte_conservation
      (** end check: every injected payload byte is accounted for —
          [injected = delivered + dropped + blackholed] *)
  | No_crashed_traversal
      (** continuous check (fabric arrival tap): no packet is ever
          observed arriving at — hence traversing — a crashed node *)
  | Reconverge_within of { max_ns : int }
      (** end check: every fault-injection record reconverged (the rate
          allocation reflects the new topology) within [max_ns] of its
          detection *)
  | View_staleness of { max_ns : int; poll_ns : int }
      (** polled check: no continuous stretch of control-plane view
          divergence lasts longer than [max_ns]; also fails if views
          still disagree when the run ends *)
  | Slo_attainment of { priority : int; min_attainment : float }
      (** end check: the class's measured SLO attainment
          ({!Metrics.slo_attainment} — exact per-flow accounting, not a
          percentile estimate) is at least [min_attainment]; vacuously 1
          when the class completed no flows or has no SLO armed *)
  | Tail_latency of { priority : int; percentile : float; max_ns : int }
      (** end check: the class's FCT [percentile] read from its
          log-bucketed histogram is within [max_ns]; skipped when the
          class completed no flows *)

type report = {
  checks : int;  (** individual invariant evaluations performed *)
  violations : string list;  (** in detection order; empty on a clean run *)
  worst_staleness_ns : int;
      (** longest continuous view-divergence stretch observed by a
          [View_staleness] monitor (0 without one) *)
  end_ns : int;  (** simulation clock when the run went idle *)
}

val run :
  ?on_violation:(string -> unit) ->
  ?until_ns:int ->
  invariants:invariant list ->
  R2c2_sim.t ->
  step list ->
  report
(** Schedule every step of the timeline, install the monitors, drive the
    simulation to completion and run the end-of-run checks. Steps may be
    given in any order; same-instant events apply in list order.

    [on_violation] fires at the moment a violation is detected, default
    [failwith] — a violated invariant kills the run loudly unless the
    caller overrides it (the tests do, to assert on collected
    violations, which are always also returned in the report). *)
