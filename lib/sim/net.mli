(** Packet-level network fabric.

    Every directed link has a FIFO output queue at its source node, a
    serialization rate and a propagation delay. Packets are source routed:
    they carry their full vertex path and a hop index, so intermediate
    nodes forward without any per-flow state (paper §3.5).

    Broadcast packets carry a [(source, tree)] pair instead of a path and
    are replicated to the tree children at every node (paper §3.2).

    {2 Packet representation}

    A packet is an integer handle into a per-fabric {!Util.Arena} pool —
    not a record. Fields are read through accessor functions taking the
    fabric; routes live in a shared refcounted int-slice pool
    ({!Util.Arena.Ints}), interned once and shared by every packet of a
    flow (retransmits included). Injecting, forwarding and delivering a
    packet allocates nothing on the OCaml heap.

    Ownership: the fabric frees a packet after its terminal callback
    ([on_deliver] / [on_drop] / [on_blackhole], or the last
    [on_bcast_deliver] of a leaf copy) returns. Handles must not be stashed
    across callbacks — read what you need inside the callback. *)

type t

type packet = int
(** Arena handle. Valid only while the packet is in flight; see ownership
    note above. *)

type route = int
(** Interned route: a handle into the fabric's shared slice pool. *)

(** {2 Construction} *)

val create :
  Engine.t ->
  Topology.t ->
  ?queue_capacity:int ->
  ?count_control:bool ->
  link_gbps:Util.Units.gbps ->
  hop_latency_ns:int ->
  unit ->
  t
(** [queue_capacity] bounds each output queue in bytes (tail drop);
    default unbounded. [count_control] (default true) includes broadcast
    bytes in the control-traffic counters. Installs the fabric as the
    engine's tagged-event dispatcher. *)

val topo : t -> Topology.t
val engine : t -> Engine.t

(** {2 Routes} *)

val intern_route : t -> int array -> route
(** Copy a vertex path into the slice pool; the caller owns one reference.
    Senders below take their own reference, so a one-shot caller releases
    right after sending; a flow keeps its route interned for its lifetime
    and releases it (once) when done. *)

val retain_route : t -> route -> unit

val release_route : t -> route -> unit
(** Drop one reference; the last release recycles the slice. Raises
    [Invalid_argument] on a double release. *)

(** {2 Field accessors}

    [kind] returns one of the codes below; the per-kind accessors are only
    meaningful for packets of that kind (unchecked). *)

val code_data : int
val code_ack : int
val code_bcast : int
val code_digest : int
val code_nack : int
val code_sync : int
val code_pause : int

val kind : t -> packet -> int
val is_control : t -> packet -> bool
(** All kinds except Data/Ack. *)

val bytes : t -> packet -> int
(** Wire size, header included. *)

val hop : t -> packet -> int
(** Next index into the route. *)

val route_length : t -> packet -> int
val route_at : t -> packet -> int -> int
val route_last : t -> packet -> int
(** Final vertex of the route — the packet's destination. *)

val data_flow : t -> packet -> int
val data_seq : t -> packet -> int
val data_last : t -> packet -> bool
val ack_flow : t -> packet -> int
val ack_ackno : t -> packet -> int
val bcast_id : t -> packet -> int
val bcast_root : t -> packet -> int
val bcast_tree : t -> packet -> int
val bcast_seq : t -> packet -> int
(** The per-(root, tree) reliable sequence number ({!Broadcast.Rbcast}). *)

val bcast_inc : t -> packet -> int
(** The origin incarnation stamped on the copy — receive windows key their
    crash-restart invalidation on this ({!Rbcast.observe_incarnation}). *)

val digest_root : t -> packet -> int
val digest_tree : t -> packet -> int
val digest_epoch : t -> packet -> int
val digest_last_seq : t -> packet -> int
val digest_hash : t -> packet -> int
val nack_root : t -> packet -> int
val nack_tree : t -> packet -> int
val nack_from : t -> packet -> int
val nack_to : t -> packet -> int
val nack_requester : t -> packet -> int
val pause_node : t -> packet -> int
val pause_class : t -> packet -> int
val pause_level : t -> packet -> int
val pause_window : t -> packet -> int
val sync_root : t -> packet -> int
val sync_entries : t -> packet -> int list
(** The origin's live-flow ids (fresh list; sync is rare repair traffic). *)

val sync_last_seqs : t -> packet -> int array
(** The origin's per-tree last sequence numbers (fresh array). *)

(** {2 Callbacks} *)

val on_deliver : t -> (packet -> unit) -> unit
(** Called when a source-routed packet reaches the end of its route. *)

val on_bcast_deliver : t -> (packet -> node:int -> unit) -> unit
(** Called at {e every} vertex (including relays) receiving a broadcast
    copy, excluding the root itself. *)

val on_drop : t -> (packet -> unit) -> unit

val set_broadcast : t -> Broadcast.t -> unit
(** Required before sending broadcast packets. *)

(** {2 Injection}

    Source-routed senders validate the route ([Invalid_argument] on a
    route shorter than two vertices or crossing non-adjacent ones) and
    take their own reference on it. *)

val send_data :
  t -> flow:int -> seq:int -> last:bool -> bytes:int -> route:route -> unit

val send_ack : t -> flow:int -> ackno:int -> bytes:int -> route:route -> unit

val send_nack :
  t ->
  root:int ->
  tree:int ->
  from_seq:int ->
  to_seq:int ->
  requester:int ->
  bytes:int ->
  route:route ->
  unit
(** Source-routed retransmission request for an inclusive seq range. *)

val send_sync :
  t -> root:int -> entries:int list -> last_seqs:int array -> bytes:int -> route:route -> unit
(** Source-routed full-state repair: [root]'s live-flow ids plus its
    per-tree last sequence numbers. *)

val send_pause :
  t ->
  node:int ->
  cls:int ->
  level:int ->
  window_kbps:int ->
  bytes:int ->
  route:route ->
  unit
(** Source-routed backpressure notice from a congested receiver [node]:
    each [level] asks the paused sender to halve its injection rate for
    flows of class [cls] and above ([level] 0 is the all-clear);
    [window_kbps] is an advisory ceiling (0 = none). Raises on a negative
    class or level. *)

val send_bcast :
  t ->
  ?seq:int ->
  ?inc:int ->
  root:int ->
  tree:int ->
  bcast_id:int ->
  bytes:int ->
  unit ->
  unit
(** Inject a broadcast at its root; copies fan out along the tree. [seq]
    (default 0) is the reliable-broadcast sequence number, [inc] (default 0)
    the origin incarnation after crash-restarts. *)

val send_digest_tree :
  t -> root:int -> tree:int -> epoch:int -> last_seq:int -> hash:int -> bytes:int -> unit
(** Inject a periodic anti-entropy beacon at its root, tree-forwarded like
    a broadcast. *)

val tx_time_ns : t -> int -> int
(** Serialization time of a packet of the given byte size. *)

(** {2 Pool telemetry} *)

val packets_live : t -> int
val packets_high_water : t -> int
(** Peak in-flight packet count — the measured figure behind the pool's
    initial sizing. *)

(** {2 Physical failures}

    The fabric's down-state is the {e physical} truth, flipped at the
    failure instant — unlike the control-plane overlay in {!Topology},
    which the simulation updates only after the detection delay, so
    senders keep routing onto a dead cable until discovery catches up.
    A packet that meets a dead element — queued on a failed link, finishing
    serialization onto one, or arriving at a dead node — is {e blackholed}:
    silently destroyed, counted, and reported via {!on_blackhole}. A packet
    already past serialization when the cable dies still arrives. *)

val fail_link : t -> int -> int -> unit
(** Kill the cable between two adjacent vertices (both directions). Queued
    packets are blackholed. Raises [Invalid_argument] if not adjacent. *)

val restore_link : t -> int -> int -> unit

val fail_node : t -> int -> unit
(** Kill a vertex: its output queues are purged and anything later arriving
    at it is blackholed. *)

val restore_node : t -> int -> unit
val node_up : t -> int -> bool

val on_blackhole : t -> (packet -> unit) -> unit
(** Called for every blackholed packet (after counting). *)

val blackholes : t -> int
val blackholed_bytes : t -> int
(** Wire bytes destroyed by failures, headers included. *)

val blackholed_data_bytes : t -> int
(** The [Data]/[Ack] share of {!blackholed_bytes}. *)

val blackholed_ctrl_bytes : t -> int
(** The control-plane (Bcast/Digest/Nack/Sync) share of
    {!blackholed_bytes}. *)

(** {2 Control-plane chaos}

    Probabilistic loss, reordering and duplication applied per hop to
    control packets only — independent of the physical failures above, and
    deterministic for a given seed because the draws come from a dedicated
    generator untouched by anything else. *)

val set_control_chaos :
  t ->
  seed:int ->
  loss:Util.Units.fraction ->
  reorder:Util.Units.fraction ->
  dup:Util.Units.fraction ->
  unit
(** Install or retune the injector; rates are probabilities in [\[0, 1)]
    applied independently at every hop. The RNG is created from [seed] on
    first call and kept across retunes, so flipping rates mid-run (from an
    engine event) does not restart the decision stream. Raises
    [Invalid_argument] on an out-of-range rate. *)

val ctrl_lost : t -> int
val ctrl_lost_bytes : t -> int
val ctrl_reordered : t -> int
val ctrl_dupped : t -> int

val ctrl_hops : t -> int
(** Control-packet hop transmissions attempted, lost ones included — the
    denominator for an observed control-loss rate. *)

(** {2 Gray failures (flaky links)}

    Unlike the binary up/down failures above, a {e flaky} link stays up but
    intermittently loses packets and spikes its latency — any packet kind,
    both directions. Losses go through the ordinary {!on_drop} path (not
    the blackhole path), so upstairs they are indistinguishable from queue
    drops: payload accounting and per-packet retransmission apply
    unchanged. Draws come from a dedicated RNG touched only on flagged
    links, so a run without flaky links is bit-identical to one on a fabric
    that never heard of them. *)

val set_flaky_link :
  t ->
  seed:int ->
  ?spike_ns:int ->
  int ->
  int ->
  loss:Util.Units.fraction ->
  spike:Util.Units.fraction ->
  unit
(** [set_flaky_link t ~seed u v ~loss ~spike] flags the cable between
    adjacent [u] and [v] (both directions): each packet propagating over it
    is lost with probability [loss] and, surviving, delayed by an extra
    [spike_ns] with probability [spike]. The RNG is created from [seed] on
    the first call and kept across retunes. [spike_ns] (fabric-wide; the
    last positive value wins) defaults to 0. Raises [Invalid_argument] on
    out-of-range rates or non-adjacent vertices. *)

val clear_flaky_link : t -> int -> int -> unit
(** Unflag the cable; counters and the RNG survive for determinism. *)

val flaky_link_stats : t -> int -> int -> int * int
(** [(attempts, losses)] on the cable, both directions summed, counted only
    while flagged — the health estimator's ground truth. *)

val flaky_lost : t -> int
val flaky_lost_bytes : t -> int

val set_arrive_tap : t -> (node:int -> packet -> unit) -> unit
(** Observation tap fired on every live arrival, relays included (dead-node
    arrivals blackhole instead and never reach the tap). Chaos-scenario
    invariant monitors hang off this; the default tap does nothing. *)

val max_queue_bytes : t -> int array
(** Per-link maximum queue occupancy observed (bytes). *)

val set_queue_watermarks : t -> high:int -> low:int -> unit
(** Arm occupancy-watermark overload detection: a link is flagged
    overloaded when its queue exceeds [high] bytes and unflagged only
    once it drains to [low] (hysteresis against flapping). Standing
    queues are re-evaluated immediately. Default [high] is [max_int], so
    detection is off and the event stream is untouched. Raises unless
    [0 <= low < high]. *)

val overloaded_links : t -> int
(** Links currently above their high watermark (not yet drained to low). *)

val link_overloaded : t -> link_id:int -> bool

val drops : t -> int
val data_bytes_on_wire : t -> Util.Units.bytes
(** Total bytes * hops carried for Data/Ack packets. *)

val control_bytes_on_wire : t -> Util.Units.bytes
(** Total bytes * hops carried for broadcast packets. *)

val reset_wire_counters : t -> unit
