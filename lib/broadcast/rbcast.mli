(** Reliable-broadcast bookkeeping for a lossy control plane.

    The flow-event broadcasts of §3.2 are only a usable traffic-matrix feed
    if every node can tell {e that} it missed a packet and recover it. This
    module provides the deterministic machinery both ends need:

    - the {e origin} stamps each broadcast with a per-(source, tree)
      monotonic sequence number, keeps a bounded replay log for answering
      NACKs, and maintains the authoritative live-flow set whose
      {!state_hash} rides in anti-entropy digests;
    - the {e receive windows} (one per (source, tree) at every node, all
      in one flat table) deliver packets exactly once in sequence order,
      buffer reordered arrivals, surface gaps for NACK-based repair and
      absorb duplicates.

    Everything here is pure data structure: timers, packet transport and
    topology stay with the caller, so the same code backs the packet
    simulator ([Sim.R2c2_sim]) and the application-level control plane
    ([R2c2.Stack]). Payloads are polymorphic — the simulator stores compact
    event ids, the stack stores decoded {!Wire.broadcast} records. *)

(** {2 Live-flow set hash}

    The one hash every copy of a live-flow set is compared by: the wrapping
    native-int sum, over the ids, of a bijective SplitMix64-style mix. It
    is commutative, so holders keep it up to date instead of sorting the
    set; the empty set hashes to 0. Sets differing by one id, or by one id
    on each side, never collide: no id [>= 0] mixes to 0. *)

val add_id : (int, 'v) Hashtbl.t -> int -> 'v -> int
(** Bind the id (replacing any binding) and return the change of the set
    hash of the table's keys: the id's term if it is new, else 0. *)

val remove_id : (int, 'v) Hashtbl.t -> int -> int
(** Unbind the id; minus its term if it was present, else 0. *)

(** {2 Origin (sender) side} *)

type 'a origin

val origin : ?log_cap:int -> trees:int -> unit -> 'a origin
(** Sender state for one source owning [trees] broadcast trees. The replay
    log keeps the [log_cap] (default 65536) most recent packets per tree;
    older sequence numbers can no longer be retransmitted and must be
    recovered by a full-state sync. *)

val send : 'a origin -> tree:int -> 'a -> int
(** Assign the next sequence number on [tree], log the payload for
    retransmission, and return the sequence number to put on the wire. *)

val last_seq : 'a origin -> tree:int -> int
(** Highest sequence number assigned on [tree]; -1 if none yet. *)

val replay : 'a origin -> tree:int -> seq:int -> 'a option
(** Look up a logged packet for NACK retransmission; [None] once evicted. *)

val mark_live : 'a origin -> int -> unit
(** Record a flow id as live at this origin (sent with its start event). *)

val mark_dead : 'a origin -> int -> unit
(** Remove a flow id (sent with its finish event). *)

val live_ids : 'a origin -> int list
(** The live-flow ids, ascending — the payload of a full-state sync. *)

val state_hash : 'a origin -> int
(** The set hash of {!live_ids}, kept up to date — what digests advertise. *)

val bump_epoch : 'a origin -> int
(** Advance and return the anti-entropy epoch counter. *)

val epoch : 'a origin -> int

val restart : 'a origin -> int
(** Crash-restart: wipe the replay logs, live set and sequence spaces (the
    node lost all soft state), bump the anti-entropy epoch, and advance the
    {e incarnation} — returned so the rejoin JOIN can announce it. Receive
    windows key their invalidation on the incarnation via
    {!observe_incarnation},
    {e not} on the epoch, which moves every digest round. *)

val incarnation : 'a origin -> int
(** Number of restarts this origin has gone through; 0 initially. *)

(** {2 Receive windows}

    One table holds the receive window of every (origin, tree, receiver)
    triple. Each window is four ints — next expected sequence, highest
    sequence heard of ([hi]), the origin incarnation it is keyed to, and
    [duplicates * 2 + armed] — in an int block per (origin, tree), so the
    windows a flood from one root touches are contiguous. A block is
    allocated on the first write to one of its windows; until then they
    read as fresh (expecting sequence 0, [hi = -1], incarnation 0).
    Out-of-order packets wait in a side table keyed by window id that the
    in-order path never probes.

    Payloads are only stored while buffered: an in-order packet is
    {!Deliver}ed back to the caller, which applies the payload it already
    holds and then drains buffered successors with {!take_next}. An
    accepted in-order packet therefore allocates nothing. *)

type 'a table

val table : origins:int -> trees:int -> receivers:int -> 'a table
(** Windows for [origins] sources of [trees] trees each, at [receivers]
    nodes, all fresh. *)

val win : 'a table -> origin:int -> tree:int -> receiver:int -> int
(** The window id of a triple: [((origin * trees) + tree) * receivers +
    receiver]. Every other function takes this id. *)

type verdict =
  | Deliver
      (** the packet is next in sequence: the caller applies it, then
          drains {!take_next} until [None] — each event exactly once, in
          sequence order *)
  | Duplicate  (** already delivered or already buffered; drop *)
  | Buffered  (** arrived ahead of a gap; a repair should be scheduled *)

val receive : 'a table -> int -> seq:int -> 'a -> verdict
(** Accept one packet. Raises [hi] to [seq] whatever the verdict. *)

val take_next : 'a table -> int -> 'a option
(** The buffered packet at the window's next sequence number, if any,
    advancing the window past it. *)

type keying =
  | Stale  (** older than the window's incarnation: ignore the packet *)
  | Current  (** the window's incarnation *)
  | Rekeyed
      (** newer: the window dropped its buffer, sequence cursor, [hi] and
          repair latch and now expects sequence 0 of [inc] *)

val observe_incarnation : 'a table -> int -> inc:int -> keying
(** Stale-window guard: call with the origin incarnation stamped on an
    incoming packet {e before} {!receive}. Without the re-key, the
    restarted origin's fresh sequence 0 would be absorbed as a duplicate
    of the pre-crash run. The duplicate count survives. *)

val observe_origin_incarnation : 'a table -> int -> inc:int -> keying
(** {!observe_incarnation} for the whole origin: when window [w] re-keys,
    every other tree of [w]'s origin at [w]'s receiver re-keys to [inc]
    with it. Receivers call this on every broadcast, digest and JOIN, so
    the trees of one origin at one receiver always share an incarnation.
    Allocates nothing once the origin's blocks exist. *)

val incarnation_of : 'a table -> int -> int
(** The origin incarnation the window is currently keyed to. *)

val advertise : 'a table -> int -> last:int -> unit
(** Raise [hi] to [last]: a digest announced sequences up to [last]. *)

val next_expected : 'a table -> int -> int

val highest : 'a table -> int -> int
(** [hi]: the highest sequence number heard of; -1 if none. *)

val caught_up : 'a table -> int -> bool
(** [next_expected > highest]: nothing heard of is missing. *)

val pending_count : 'a table -> int -> int
(** Out-of-order packets currently buffered behind a gap. *)

val duplicates : 'a table -> int -> int
(** Packets the window absorbed as duplicates so far. *)

val total_duplicates : 'a table -> int
(** {!duplicates} summed over every window. *)

val missing : 'a table -> int -> (int * int) list
(** Inclusive gaps in [next_expected .. highest] not covered by buffered
    packets — the ranges a NACK should request. Empty when caught up. *)

val fast_forward : 'a table -> int -> next:int -> unit
(** After a full-state sync covering everything below [next]: raise [hi]
    to [next - 1], and if the window is behind [next], drop the buffered
    packets below it and jump there. Buffered packets from [next] on are
    strictly newer than the sync; drain them with {!take_next}. *)

val arm : 'a table -> int -> bool
(** Latch the caller's repair timer: true exactly when it was not armed,
    so only one timer per window is outstanding. *)

val disarm : 'a table -> int -> unit

val generation : 'a table -> int -> int
(** Changes whenever the window is wiped or re-keyed. A repair timer
    records it when armed and does nothing if it has moved by the time it
    fires: the window it was armed for no longer exists. *)

val wipe_receiver : 'a table -> receiver:int -> unit
(** Crash or restart of [receiver]: every one of its windows becomes
    fresh, duplicate count and buffer included. *)
