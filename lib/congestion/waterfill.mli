(** Weighted max-min rate allocation by progressive filling (paper §3.3).

    Every flow comes with its per-link rate fractions (from
    {!Routing.fractions}): a flow sending at rate [r] loads link [l] with
    [r *. frac]. The allocator raises the fill level of all flows of the
    highest priority at equal weighted pace, freezing flows as links
    saturate or demands are met, then repeats for the next priority level
    with the leftover capacity (§3.3.2, "Beyond per-flow fairness").

    A [headroom] fraction of every link's capacity is set aside to absorb
    flows that have started but are not yet globally visible (§3.3.2).

    All rates carried across this interface are {!Util.Units.byte_rate}
    (bytes/ns) — the allocator's canonical unit (DESIGN.md §10); link
    fractions and headroom are {!Util.Units.fraction}. *)

type flow = {
  id : int;  (** opaque; echoed back in results *)
  weight : float;  (** allocation weight, > 0 *)
  priority : int;  (** 0 is served first *)
  demand : Util.Units.byte_rate option;  (** rate cap for host-limited flows *)
  links : (int * Util.Units.fraction) array;
      (** (link id, fraction), fractions > 0 *)
}

val flow :
  ?weight:float ->
  ?priority:int ->
  ?demand:Util.Units.byte_rate ->
  id:int ->
  (int * Util.Units.fraction) array ->
  flow
(** Convenience constructor; weight defaults to 1, priority to 0. *)

val allocate :
  ?headroom:Util.Units.fraction ->
  capacities:Util.Units.byte_rate array ->
  flow array ->
  Util.Units.byte_rate array
(** [allocate ~capacities flows] returns the rate of each flow, indexed as
    the input array. [capacities.(l)] is link [l]'s capacity in bytes/ns.
    [headroom] (default 0) is the capacity fraction left unallocated.
    Raises [Invalid_argument] on non-positive weights or fractions.

    This is the paper's "efficient variant of the water-filling algorithm"
    (§4.2): saturation events are processed from a heap with lazy per-link
    settlement, so the cost is near-linear in the total number of
    (flow, link) incidences rather than iterations times links. It is one
    fresh run of {!Inc}: flow [i] is added as row [i] ([id] is not
    consulted, so repeated ids are fine), and validation — including the
    [Invalid_argument] messages — is {!Inc.create}'s and {!Inc.add_flow}'s. *)

val allocate_reference :
  ?headroom:Util.Units.fraction ->
  capacities:Util.Units.byte_rate array ->
  flow array ->
  Util.Units.byte_rate array
(** Textbook progressive filling [12]: raise all rates at equal weighted
    pace, scan every link for the next saturation, repeat. Quadratic but
    obviously correct — the oracle that {!allocate} is property-tested
    against. *)

val link_utilization :
  capacities:Util.Units.byte_rate array ->
  flow array ->
  Util.Units.byte_rate array ->
  Util.Units.fraction array
(** [link_utilization ~capacities flows rates] is each link's load divided
    by its capacity; for checking feasibility in tests. *)

(** Incremental epoch recomputation (§3.3.4).

    [Inc.t] keeps the allocator's inputs — flow rows in a flat CSR layout —
    and all water-filling working buffers alive across epochs. Flow
    open/close/demand/reroute events patch single rows and mark the state
    dirty; {!Inc.allocate} on a clean state returns the cached rates in
    O(1) without allocating, and on a dirty state recomputes with every
    buffer reused (the working arrays only grow when the flow or incidence
    count outgrows them). {!allocate} is one fresh run of this kernel, so
    an [Inc.t] whose rows hold the same flows in the same order (no
    removal has swapped a later row forward) gives bit-identical rates;
    both are property-tested against {!allocate_reference}. *)
module Inc : sig
  type t

  val create :
    ?headroom:Util.Units.fraction ->
    capacities:Util.Units.byte_rate array ->
    unit ->
    t
  (** Same [headroom]/[capacities] contract as {!allocate}; capacities are
      copied and fixed for the lifetime of the state. *)

  val add_flow :
    ?weight:float ->
    ?priority:int ->
    ?demand:Util.Units.byte_rate ->
    t ->
    id:int ->
    (int * Util.Units.fraction) array ->
    unit
  (** Open a flow. [id] must be fresh; links are validated like {!allocate}
      inputs. Raises [Invalid_argument] otherwise. *)

  val remove_flow : t -> id:int -> unit
  (** Close a flow; unknown ids raise. *)

  val set_demand : t -> id:int -> Util.Units.byte_rate option -> unit
  (** Update a flow's demand cap ([None] = network-limited). Setting the
      value it already has keeps the state clean. *)

  val set_links : t -> id:int -> (int * Util.Units.fraction) array -> unit
  (** Replace a flow's link fractions after a routing change. *)

  val allocate : t -> unit
  (** Recompute rates if any event arrived since the last call; otherwise a
      no-op (the O(1) clean-epoch path — it performs no heap operation, as
      {!heap_ops} can verify, and allocates nothing). *)

  val rate : t -> id:int -> Util.Units.byte_rate
  (** The flow's rate from the last {!allocate} (0 for flows added since). *)

  val iter_rates : t -> (id:int -> rate:Util.Units.byte_rate -> unit) -> unit
  (** Visit every live flow's last-computed rate, in unspecified order. *)

  val live_flows : t -> int
  val is_dirty : t -> bool
  val mem : t -> id:int -> bool

  val heap_ops : t -> int
  (** Heap pushes plus pops performed by this state's recomputations so
      far — the event-processing work of the kernel, for tests. *)

  val set_headroom : t -> Util.Units.fraction -> unit
  (** Retune the reserved capacity fraction — the graceful-degradation knob
      under control-plane loss. Same range contract as {!create}; a changed
      value marks the state dirty, an unchanged one keeps it clean. *)

  val set_class_reserve : t -> priority:int -> reserve:Util.Units.fraction -> unit
  (** Per-class headroom reservation (overload backpressure): withhold
      [reserve] of every link's capacity from all classes with priority >=
      [priority], keeping that slice free for the classes above the
      threshold. [reserve] must be in [\[0, 1)]; 0 disables (the default —
      allocations are then bit-identical to a state without the feature).
      A changed value marks the state dirty. *)
end
