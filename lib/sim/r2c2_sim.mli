(** Packet-level simulation of the R2C2 stack (paper §3, §5.2).

    Senders pace each flow with a token bucket at its allocated rate and
    source route every packet. Flow start/finish events travel as real
    16-byte broadcast packets over per-source spanning trees; once a flow's
    start broadcast has reached every node it joins the global rate
    computation, which runs periodically every [recompute_interval_ns]
    (§3.3.2). Until then the flow sends into the bandwidth headroom.

    Two entry points: {!run} simulates a pre-generated workload;
    {!create}/{!start_flow}/{!run_engine} expose the simulator as a handle
    so applications can start flows dynamically (e.g. an RPC server
    answering requests mid-simulation). *)

type control =
  | Global_epoch
      (** one rate computation per epoch over the globally-visible flow set,
          applied at every sender — a fast, faithful approximation (views
          diverge for less than a broadcast time, far below rho) *)
  | Per_node
      (** the paper's literal design: every sender maintains its own view of
          the traffic matrix from the broadcast packets it receives and runs
          its own water-filling for its own flows *)

type config = {
  link_gbps : Util.Units.gbps;
  hop_latency_ns : int;
  headroom : Util.Units.fraction;
  recompute_interval_ns : int;  (** rho, the rate-epoch period; positive *)
  mtu : int;  (** wire bytes per data packet, header included *)
  real_broadcast : bool;
      (** if false, visibility is modeled as tree-depth latency and no
          broadcast packets enter the fabric *)
  queue_capacity : int;  (** bytes per output queue; [max_int] = unbounded *)
  control : control;
  reselect_interval_ns : int option;
      (** §3.4: when set, flows alive for at least one interval are
          periodically re-assigned RPS or VLB by the GA routing selector,
          and the new assignment is advertised in one batched broadcast;
          must be positive *)
  rtx_timeout_ns : int;  (** initial per-packet retransmission timeout *)
  rtx_backoff : float;
      (** timeout multiplier per retransmission of the same packet;
          [<= 1.0] keeps a fixed period *)
  rtx_cap_ns : int;  (** ceiling on the backed-off timeout *)
  reliable_bcast : bool;
      (** loss-tolerant control plane: every flow-event broadcast carries a
          per-(source, tree) sequence number, receivers run windows with
          NACK-based repair from the origin's replay log, and sources
          beacon periodic anti-entropy digests whose state hash triggers a
          full-state sync on genuine divergence. Requires
          [real_broadcast] *)
  digest_interval_ns : int;
      (** anti-entropy beacon period per source; positive when
          [reliable_bcast] *)
  bcast_log_cap : int;  (** origin replay-log depth per tree *)
  control_loss : Util.Units.fraction;
      (** chaos: per-hop control-packet loss probability, [0, 1) *)
  control_reorder : Util.Units.fraction;
      (** per-hop extra-delay (reorder) probability *)
  control_dup : Util.Units.fraction;  (** per-hop duplication probability *)
  queue_high_watermark : int;
      (** overload detection: a link whose queue exceeds this many bytes is
          flagged overloaded; [max_int] (the default) disables detection and
          keeps the event stream bit-identical to a build without it *)
  queue_low_watermark : int;
      (** hysteresis: the flag clears only once the queue drains to this *)
  overload_control : bool;
      (** master switch for strict-priority admission shedding and PAUSE
          backpressure; needs [queue_high_watermark] to be armed to ever
          see an overloaded epoch. A congested receiver emits at most one
          PAUSE per 50 µs, covering class 1 and below; class 0 is never
          paced. Pacing and shedding use the {!Congestion.Overload}
          defaults. *)
  slos : (int * int) list;
      (** per-class SLO promises [(priority, fct_bound_ns)], installed into
          {!Metrics.set_slo} at {!create} *)
  reserve_priority : int;
      (** waterfill per-class headroom reservation applies to classes >=
          this priority *)
  class_reserve : Util.Units.fraction;
      (** link-capacity fraction withheld from those classes, [0, 1);
          0 (the default) disables the reservation. [Global_epoch] only:
          [Per_node] senders allocate with {!Congestion.Waterfill.allocate},
          which has no reserve, so {!create} rejects a non-zero value
          there *)
  engine_backend : Engine.backend;
      (** event-queue implementation; [Calendar] (the default) is the O(1)
          wheel, [Binary_heap] the reference queue kept for differential
          testing — both pop in (time, scheduling order), so results must
          be identical *)
  seed : int;
}

val default_config : config
(** 10 Gbps, 100 ns hops, 5% headroom, rho = 500 µs, 1500-byte MTU, real
    broadcasts, unbounded queues, global-epoch control, no reselection,
    50 µs retransmission timeout doubling up to 1 ms, seed 1. Reliable
    broadcast off, digests every 100 µs, 64 Ki replay log, no chaos,
    overload control off, no SLOs or class reserve, calendar queue.

    Fixed constants, not fields: 4 broadcast trees per source; 30
    retransmissions per packet before a flow aborts; a 20 µs NACK delay;
    JOIN re-announced every {!rejoin_retry_ns}; failures detected after
    {!detection_delay}; the loss-scaled headroom of
    {!Congestion.Overload.Headroom}; the gray-failure and PAUSE constants
    documented at {!flaky_link_at} and [overload_control]. *)

val detection_delay : config -> Topology.t -> int
(** Latency from a physical failure to every node's topology map
    reflecting it (§3.2 topology discovery): twice the time a 16-byte
    broadcast packet needs to cross the rack diameter. *)

val rejoin_retry_ns : int
(** 500 µs: a restarted node re-announces its JOIN at this period until
    it has caught up. *)

type failure = {
  kind : string;
      (** ["link"], ["node"], ["restore-link"], ["restore-node"],
          ["crash"], ["restart"] *)
  fail_ns : int;  (** when the physical event happened *)
  detect_ns : int;  (** when topology discovery surfaced it *)
  mutable reconverge_ns : int;
      (** first rate epoch at or after detection — every allocation reflects
          the new topology from here on; -1 if the run ended before then *)
  mutable aborted : int;  (** flows this event killed (dead endpoint) *)
  mutable repaired : int;  (** broadcast trees rebuilt at detection *)
}

type result = {
  metrics : Metrics.t;
  max_queue : int array;  (** per-link peak occupancy, bytes *)
  drops : int;
  data_wire_bytes : Util.Units.bytes;
  control_wire_bytes : Util.Units.bytes;
  recomputes : int;
      (** allocations computed: one per dirty epoch under [Global_epoch];
          under [Per_node], one per distinct believed flow set per dirty
          epoch — senders with equal sets share it *)
  rate_updates : (int * Util.Units.gbps) list;
      (** (time ns, allocated rate) samples *)
  reselections : int;  (** §3.4 routing-reselection rounds executed *)
  flows_rerouted : int;  (** flows whose protocol a reselection changed *)
  blackholes : int;  (** packets of any kind destroyed by dead links/nodes *)
  blackholed_bytes : int;  (** their wire bytes *)
  injected_payload : int;
      (** payload bytes of every Data transmission, retransmissions included *)
  delivered_payload : int;
      (** payload bytes reaching their destination, duplicates included —
          [injected = delivered + dropped + blackholed] always holds *)
  dropped_payload : int;  (** payload lost to queue tail drops *)
  blackholed_payload : int;  (** payload destroyed by failures *)
  retransmissions : int;  (** Data packets re-sent after a loss *)
  aborted_flows : int list;
      (** flows killed by failures (dead endpoint or retries exhausted),
          ascending; they count as neither completed nor in-flight *)
  failures : failure list;  (** chronological fault-injection records *)
  tree_repairs : int;  (** broadcast trees rebuilt over the whole run *)
  tree_repair_bytes : int;  (** control bytes those rebuilds cost *)
  ctrl_lost : int;  (** control packets destroyed by chaos injection *)
  ctrl_lost_bytes : int;
  ctrl_reordered : int;  (** control packets given extra per-hop delay *)
  ctrl_dupped : int;  (** control packets duplicated in flight *)
  blackholed_data_bytes : int;  (** Data/Ack share of [blackholed_bytes] *)
  blackholed_ctrl_bytes : int;  (** control share of [blackholed_bytes] *)
  nacks_sent : int;  (** retransmission requests sent by receive windows *)
  event_retransmits : int;  (** origin replays answering NACKs *)
  sync_requests : int;  (** full-state syncs requested (hash divergence) *)
  syncs_sent : int;
  sync_bytes : int;  (** full-state repair traffic, wire bytes at origin *)
  dup_events_absorbed : int;
      (** broadcast deliveries absorbed as duplicates by receive windows *)
  divergence_epochs : int;
      (** rate epochs during which at least two alive nodes held different
          traffic-matrix views (Per_node) *)
  reconverge_samples : int list;
      (** ns from each first divergent epoch to the next epoch where every
          view was identical again *)
  terminal_diverged : int;
      (** nodes still disagreeing with the modal view when the run ended —
          0 is the steady-state correctness criterion *)
  loss_ewma : Util.Units.fraction;  (** final observed control-loss estimate *)
  effective_headroom : Util.Units.fraction;
      (** final loss-scaled waterfill headroom *)
  flaky_lost : int;  (** packets lost to gray-failure (flaky-link) injection *)
  flaky_lost_bytes : int;
  quarantines : int;  (** Healthy/Probation -> Quarantined transitions *)
  probations : int;  (** Quarantined -> Probation transitions *)
  recoveries : int;  (** Probation -> Healthy transitions *)
  joins_sent : int;  (** JOIN announcements sent, retries included *)
  rejoins : (int * int * int) list;
      (** [(node, restart_ns, caught_up_ns)] per completed rejoin *)
  rejoins_pending : int;
      (** restarted nodes still catching up when the run ended — 0 is the
          rejoin-protocol correctness criterion *)
  shed_flows : int;
      (** flows refused by admission control; they inject nothing, so the
          byte-conservation identity is unaffected *)
  shed_payload : int;  (** payload bytes the shed flows would have carried *)
  pauses_sent : int;  (** PAUSE packets emitted by congested receivers *)
  pauses_received : int;  (** PAUSEs that reached and paced their sender *)
  overload_epochs : int;
      (** rate epochs that saw at least one link above the high watermark *)
  overloaded_links : int;  (** links still flagged when the run ended *)
}

(** {2 Handle API — dynamic workloads} *)

type t

val create : config -> Topology.t -> t
(** A fresh rack simulation at time 0. Raises [Invalid_argument] on an
    inconsistent config, including a non-positive [recompute_interval_ns],
    [reselect_interval_ns] or (with [reliable_bcast]) [digest_interval_ns]
    (the periodic loop would reschedule itself at the same instant
    forever), and [Per_node] control with a non-zero [class_reserve] (the
    reserve would silently not apply). *)

val engine : t -> Engine.t
(** The simulation clock; use [Engine.at]/[Engine.after] to script events
    (e.g. future {!start_flow} calls). *)

val metrics : t -> Metrics.t
val topology : t -> Topology.t

val start_flow :
  ?weight:int ->
  ?priority:int ->
  ?protocol:Routing.protocol ->
  ?demand_gbps:Util.Units.gbps ->
  ?on_complete:(int -> unit) ->
  t ->
  src:int ->
  dst:int ->
  size:int ->
  int
(** Open a flow {e at the current simulation time}: broadcasts the start
    event and begins transmitting immediately (§3.3.2). [demand_gbps]
    marks a host-limited flow; [on_complete] fires (with the flow id) when
    the last byte is delivered. Returns the flow id. *)

val run_engine : ?until_ns:int -> t -> unit
(** Process events until the rack goes idle (or [until_ns]). Can be called
    repeatedly as more flows are scripted. *)

(** {2 Fault injection (§3.2)}

    Each of these schedules a physical event at simulation time [ns]: the
    fabric state flips immediately (in-flight packets on a dead cable are
    blackholed, senders keep using stale paths), and one detection delay
    later the control plane reacts — broadcast trees are repaired, flows
    with a dead endpoint are aborted, survivors are re-pathed onto the
    surviving graph and re-announced, and the next rate epoch reconverges
    the allocations. Lost packets are recovered by per-packet
    retransmission under the {!Reliability} backoff discipline. *)

val fail_link_at : t -> ns:int -> int -> int -> unit
(** [fail_link_at t ~ns u v]: the cable between adjacent vertices [u] and
    [v] dies (both directions) at time [ns]. *)

val fail_node_at : t -> ns:int -> int -> unit
(** The node and all its cables die at time [ns]; flows to or from it are
    aborted at detection and reported in [aborted_flows]. *)

val restore_link_at : t -> ns:int -> int -> int -> unit
val restore_node_at : t -> ns:int -> int -> unit
(** Restores follow the same discovery path: the fabric heals immediately,
    the control plane re-paths one detection delay later. *)

(** {2 Crash–restart}

    Unlike {!fail_node_at}, which preserves the node's state across the
    outage, a {e crash} destroys it: receive windows, traffic-matrix view
    and sender soft state are wiped at the crash instant. A later
    {!restart_node_at} brings the node back {e cold} and runs the rejoin
    protocol — a JOIN broadcast carrying a bumped origin incarnation (every
    receiver re-keys its windows for that root and drops its pre-crash
    flows), plus per-origin snapshot requests answered over the
    anti-entropy full-state sync path. The rejoin is re-announced every
    {!rejoin_retry_ns} until the node is sequence-caught-up with every
    reachable origin, at which point {!Metrics.note_rejoin} stamps it. *)

val crash_node_at : t -> ns:int -> int -> unit
val restart_node_at : t -> ns:int -> int -> unit

(** {2 Gray failures}

    A flaky cable stays up but intermittently loses packets and spikes its
    latency by 2 µs. A per-neighbor health estimator, ticking every 50 µs
    once a flaky link exists, keeps an EWMA (weight 0.3) of each cable's
    loss rate and feeds the {!Routing} quarantine state machine: above 2%
    estimated loss a cable is {e demoted} — rather than deleted — from
    spraying fractions and VLB waypoint choice; 500 µs later it enters
    probation, and 500 µs after that it recovers or is quarantined
    again. *)

val flaky_link_at :
  t -> ns:int -> int -> int -> loss:Util.Units.fraction -> spike:Util.Units.fraction -> unit
(** [flaky_link_at t ~ns u v ~loss ~spike] flags the cable between adjacent
    [u] and [v] at time [ns]. *)

val unflaky_link_at : t -> ns:int -> int -> int -> unit

val link_health : t -> int -> int -> Routing.health
(** Current quarantine state of the cable, for monitors and tests. *)

val net : t -> Net.t
(** The underlying fabric — chaos-scenario invariant monitors hang their
    observation taps off it. *)

val results : t -> result
(** Snapshot of the statistics so far. *)

(** {2 Control-plane reliability introspection}

    Accessors used by the loss-sweep bench and the reconvergence tests;
    all of them are pure observers. *)

val set_control_chaos_at :
  t ->
  ns:int ->
  loss:Util.Units.fraction ->
  reorder:Util.Units.fraction ->
  dup:Util.Units.fraction ->
  unit
(** Schedule a mid-run retune of the control-chaos rates at simulation time
    [ns] (e.g. start lossless, degrade, recover). The chaos RNG continues
    across retunes, so runs stay seed-deterministic. *)

val control_converged : t -> bool
(** Every alive node is sequence-caught-up with every reachable origin and
    (Per_node) believes exactly the origin's live-flow set. *)

val diverged_nodes : t -> int
(** Alive nodes currently disagreeing with the modal view hash; 0 when the
    control plane is consistent (always 0 under [Global_epoch]). *)

val node_view_ids : t -> node:int -> int list
(** The flow ids in the node's view, ascending (Per_node only). *)

val node_allocations : t -> node:int -> (int * Util.Units.byte_rate) array
(** The full rate vector the node applies in its rate epoch — every flow it
    believes exists (its view plus its own still-sending flows), in
    ascending id order. Nodes with identical views return byte-identical
    vectors (Per_node only). *)

module Flow_sets : Hashtbl.S with type key = int array
(** Believed flow sets (ascending ids) compared as exact arrays: the key
    of the memo through which a Per_node rate epoch allocates once per
    distinct set. Buckets hash with [Hashtbl.hash] on the array, but sets
    colliding on it stay distinct keys. *)

val loss_ewma : t -> Util.Units.fraction
val effective_headroom : t -> Util.Units.fraction

(** {2 Overload-control introspection} *)

val shed_floor : t -> int
(** Admission's current shed floor: classes with [priority >= shed_floor]
    are being refused; [Metrics.max_class] when nothing is shed (or the
    controller is off). *)

val pacer_scale : t -> node:int -> float
(** The node's current backpressure pacing multiplier in [[0.05, 1]]; 1
    when the controller is off. *)

(** {2 Batch API — pre-generated workloads} *)

val run :
  ?protocol_of:(int -> Workload.Flowgen.spec -> Routing.protocol) ->
  ?demand_of:(int -> Workload.Flowgen.spec -> Util.Units.gbps option) ->
  ?until_ns:int ->
  config ->
  Topology.t ->
  Workload.Flowgen.spec list ->
  result
(** Simulate the flow list (sorted by arrival) to completion (or
    [until_ns]); flow ids equal list positions. [protocol_of] chooses each
    flow's routing protocol from its index and spec (default RPS for
    everything); [demand_of] marks host-limited flows with their maximum
    rate in Gbps (§3.3.2) — such a flow never injects above its demand and
    the rate computation hands its unused share to others. *)
