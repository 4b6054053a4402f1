(** The R2C2 network stack control plane (paper §3).

    A [Stack.t] is one node's view of the rack — which, thanks to flow-event
    broadcasting, equals every other node's view. Applications open and
    close flows; the stack broadcasts the events (exposed via
    {!on_broadcast} and counted in {!control_bytes_sent}), tracks the
    global traffic matrix, computes weighted max-min allocations with
    headroom on {!recompute}, estimates demand for host-limited flows, and
    periodically re-selects routing protocols for long flows to maximize
    aggregate throughput.

    The packet-level data plane lives in the [sim] library; this module is
    the control plane usable directly by applications and tests. *)

type config = {
  link_gbps : Util.Units.gbps;
  headroom : Util.Units.fraction;
  trees_per_source : int;
  default_protocol : Routing.protocol;
  selection_choices : Routing.protocol array;
      (** protocols the routing re-selection may assign *)
}

val default_config : config
(** 10 Gbps links, 5% headroom, 4 broadcast trees per source, RPS default
    routing, selection between RPS and VLB. The loss-scaled headroom
    ({!note_control_loss}) and the shed recovery window
    ({!note_epoch_load}) use the fixed constants of
    {!Congestion.Overload}. *)

type t
type flow_id = int

val create : ?config:config -> ?seed:int -> Topology.t -> t
(** Raises [Invalid_argument] if [config.headroom] exceeds
    {!Congestion.Overload.Headroom.cap}. *)

val topology : t -> Topology.t
val routing : t -> Routing.ctx
val broadcast : t -> Broadcast.t
val config : t -> config

val on_broadcast : t -> (Wire.broadcast -> unit) -> unit
(** Observe every broadcast packet the stack emits (it is also checked to
    round-trip through {!Wire.encode_broadcast}). *)

val open_flow :
  ?weight:int -> ?priority:int -> ?protocol:Routing.protocol -> t -> src:int -> dst:int -> flow_id
(** Announce a new flow. Raises [Invalid_argument] on [src = dst] or
    out-of-range hosts. *)

val close_flow : t -> flow_id -> unit
(** Announce flow termination; unknown ids raise. *)

(** {2 Overload admission control}

    Strict-priority load shedding ({!Congestion.Overload.Admission}): feed
    each rate epoch's overload verdict — e.g. whether any link queue sat
    above its watermark ({!Sim.Net.overloaded_links} in simulation, switch
    telemetry on hardware) — into {!note_epoch_load}; every overloaded
    epoch lowers the shed floor one class (lowest priority refused first,
    class 0 never refused) and 3 consecutive clean epochs (the
    {!Congestion.Overload.Admission} default) raise it back. *)

val note_epoch_load : t -> overloaded:bool -> unit
(** One rate epoch's overload verdict. *)

val admits : t -> priority:int -> bool
(** Would a flow of this class be admitted right now? *)

val shed_floor : t -> int
(** Classes with [priority >= shed_floor] are refused; 8 when nothing is
    shed. *)

val try_open_flow :
  ?weight:int ->
  ?priority:int ->
  ?protocol:Routing.protocol ->
  t ->
  src:int ->
  dst:int ->
  flow_id option
(** {!open_flow} behind the admission gate: [None] (counted in
    {!shed_flows}) when the class is currently being shed. {!open_flow}
    itself stays ungated — callers that must not be refused (control
    traffic, re-announcements) keep using it directly. *)

val shed_flows : t -> int
(** Flows refused by {!try_open_flow} so far. *)

val set_class_reserve : t -> priority:int -> reserve:Util.Units.fraction -> unit
(** Backpressure headroom: withhold [reserve] of every link's capacity
    from classes numerically >= [priority] in the rate computation
    ({!Congestion.Waterfill.Inc.set_class_reserve}), keeping that slice
    free for the latency-sensitive classes above the threshold. *)

val set_demand : t -> flow_id -> gbps:Util.Units.gbps option -> unit
(** Declare a host-limited flow's demand ([None] = network-limited);
    broadcast as a demand update. *)

val set_protocol : t -> flow_id -> Routing.protocol -> unit
(** Re-route a flow; broadcast as a route change. *)

val observe_sender_queue :
  t -> flow_id -> queued_bytes:Util.Units.bytes -> period_ns:int -> unit
(** Feed sender-side queuing into the §3.3.2 demand estimator; when the
    estimate drops below the current allocation the flow's demand is
    updated (and broadcast) automatically. *)

val recompute : t -> unit
(** One rate-computation round over the current traffic matrix. The epoch
    state is maintained incrementally ({!Congestion.Waterfill.Inc}): flow
    events patch it as they happen, so a recompute with no intervening
    event is O(1) and a dirty one reuses all allocator buffers. *)

val rate_gbps : t -> flow_id -> Util.Units.gbps
(** Allocation from the last {!recompute}; 0 before any recompute. *)

val allocations : t -> (flow_id * Util.Units.gbps) list
(** All current allocations, in Gbps. *)

val active_flows : t -> (flow_id * int * int * Routing.protocol) list
(** (id, src, dst, protocol) of open flows. *)

val aggregate_throughput_gbps : t -> Util.Units.gbps
(** Sum of current allocations. *)

val reselect_routing :
  ?pop_size:int -> ?mutation:float -> ?generations:int -> t -> Util.Rng.t -> int
(** §3.4: GA over the open flows' routing protocols maximizing aggregate
    throughput; applies (and broadcasts) improved assignments. Returns the
    number of flows whose protocol changed. Call {!recompute} afterwards to
    refresh allocations. *)

val sample_packet_route : t -> flow_id -> Util.Rng.t -> int array * int array
(** Data plane helper: one packet's vertex path under the flow's current
    protocol, with its 3-bit route selectors for the {!Wire} header. *)

val control_bytes_sent : t -> int
(** Wire bytes of all broadcasts so far:
    16 * (vertices - 1) per event. *)

(** {2 Loss-tolerant control plane}

    Every flow-event broadcast also carries a per-(stack, tree) sequence
    number in the 24-byte {!Wire.encode_seq_broadcast} format; a flow's
    events all ride the tree pinned at {!open_flow}, so a peer's per-tree
    receive window ({!View}) orders its finish after its start. Receivers
    repair gaps by NACKing the origin, which answers from a bounded replay
    log ({!replay}); periodic digests ({!emit_digests}) expose losses the
    stream cannot (a dropped final packet), and a state-hash mismatch
    while sequence-caught-up triggers a full-state {!sync_view}. The
    overhead of all of this is accounted separately in
    {!reliability_bytes_sent} — {!control_bytes_sent} keeps the paper's
    pinned 16-byte model. *)

val on_broadcast_seq : t -> (bytes -> unit) -> unit
(** Observe the 24-byte sequenced wire encoding of every emitted
    broadcast — what a lossy transport should carry to a {!View}. *)

val last_seq : t -> tree:int -> int
(** Last sequence number sent on a tree; -1 if none. *)

val matrix_hash : t -> int
(** The {!Rbcast.state_hash} of the open-flow ids; equals {!View.matrix_hash}
    of every consistent replica. Digests carry it sign-extended to 64 bits. *)

val emit_digests : ?src:int -> t -> Wire.digest list
(** One anti-entropy beacon round: bumps the epoch and returns a digest
    per tree that has carried at least one event, each stamped with the
    per-tree last sequence number and the live-set state hash. [src]
    (default 0) fills the digest's source field. Charged to
    {!reliability_bytes_sent}. *)

val replay : t -> tree:int -> seq:int -> bytes option
(** Answer a NACK: the stored event re-encoded with its original sequence
    number, or [None] if it has been evicted from the replay log (the
    requester then needs a full {!sync_view}). Charged to
    {!reliability_bytes_sent} and counted in {!event_retransmits}. *)

val replay_range : t -> tree:int -> from_seq:int -> to_seq:int -> bytes option
(** Answer a NACK's whole inclusive range as one {!Wire.encode_batch} of
    sequenced events, in ascending order, skipping sequences already
    evicted from the replay log; [None] when nothing in the range survives
    (the requester then needs a full {!sync_view}). Feed the result to
    {!View.apply_batch}. Each replayed event is charged and counted exactly
    as {!replay} would. Raises [Invalid_argument] on [to_seq < from_seq]. *)

val sync_view : t -> View.t -> unit
(** Full-state repair of a diverged replica: replaces its believed flow
    set with the authoritative one and fast-forwards its windows. Charged
    as {!Control_traffic.sync_bytes} to {!reliability_bytes_sent}. *)

val watchdog : t -> View.t list -> int
(** One divergence-watchdog round: compare each replica's
    {!View.matrix_hash} against {!matrix_hash} and {!sync_view} the
    diverged ones. Returns how many needed repair. *)

val incarnation : t -> int
(** The origin's crash–restart incarnation, 0 for a stack that never
    crashed; bumped by {!restart}. *)

val restart : ?src:int -> t -> bytes
(** Come back {e cold} after a crash: every open flow is dropped without a
    finish announcement (a dead node cannot send one — peers learn of the
    loss from the JOIN instead), the origin's streams restart at sequence
    zero under a bumped incarnation, and the encoded {!Wire.join}
    announcement to broadcast rack-wide is returned. [src] (default 0)
    fills the JOIN's node field. Charged to {!reliability_bytes_sent} at
    broadcast fan-out. *)

val snapshot_request : ?requester:int -> t -> root:int -> bytes
(** The encoded {!Wire.snapshot_req} asking [root] for a full-state
    catch-up after {!restart}; the origin answers with {!sync_view}.
    Charged to {!reliability_bytes_sent} (unicast, no fan-out). *)

val note_control_loss : t -> sent:int -> lost:int -> unit
(** Feed one observation interval of control-transport statistics into
    {!Congestion.Overload.Headroom}: the loss EWMA (weight 0.2) scales the
    reserve to [min 0.30 (headroom + 2 * EWMA)]. Updates
    {!effective_headroom} and the allocator so the next {!recompute}
    reserves more under loss. Raises [Invalid_argument] unless
    [0 <= lost <= sent]. *)

val reliability_bytes_sent : t -> int
(** Wire bytes of the loss-tolerance machinery: the 8-byte sequencing
    extension per broadcast replica, digest beacons, NACK-answering
    replays and full-state syncs. *)

val loss_ewma : t -> Util.Units.fraction
(** Current control-loss estimate in [\[0, 1\]]. *)

val effective_headroom : t -> Util.Units.fraction
(** The loss-scaled headroom the allocator is using now. *)

val syncs_sent : t -> int
val event_retransmits : t -> int

val handle_failure : t -> unit
(** §3.2 re-announcement: after a topology-discovery event every node
    re-broadcasts its ongoing flows; this re-announces every open flow
    (observable via {!on_broadcast}), then re-emits a demand update for
    every flow with a declared demand or a live demand estimator. It only
    rebuilds the view of the flows still open — it does {e not} remove
    flows whose endpoint died, so on an actual failure call
    {!notify_failure} (which owns that case) rather than this directly. *)

val notify_failure : t -> flow_id list
(** Full failure response; call after the topology's down-state changed
    ({!Topology.fail_link} / {!Topology.fail_node}). Repairs broken
    broadcast trees (charging the FIB re-announcements to
    {!control_bytes_sent}), closes every open flow whose endpoint is dead
    or unreachable (announced as a flow-finish; their ids are returned in
    ascending order), re-paths the surviving flows over the surviving
    graph — marking the allocator dirty — and finally runs
    {!handle_failure}. Call {!recompute} afterwards to reconverge the
    allocations. *)
