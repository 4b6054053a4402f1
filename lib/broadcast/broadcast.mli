(** Rack-wide broadcast of flow events (paper §3.2).

    Every source owns several shortest-path spanning trees of the rack;
    a broadcast packet carries [(source, tree-id)] and intermediate nodes
    forward it to their children in that tree via a broadcast FIB. Using
    several trees per source load-balances the broadcast traffic and gives
    alternatives under failures. *)

type t

val make : ?trees_per_source:int -> Topology.t -> t
(** Build the broadcast FIB machinery (default 4 trees per source). Trees
    are constructed lazily per source and cached. *)

val topo : t -> Topology.t
val trees_per_source : t -> int

val choose_tree : t -> Util.Rng.t -> src:int -> int
(** Tree id for the next broadcast, drawn uniformly to spread load. *)

(** {2 Failure-aware tree repair}

    Cached trees are stamped with {!Topology.version}. After a fail/restore,
    the next access to a tree re-validates it: a tree crossing a dead link
    or node (or missing a newly reachable vertex) is rebuilt on the
    surviving graph and the FIB re-announcement traffic is accounted; trees
    untouched by the failure are kept as-is. *)

val tree_valid : t -> src:int -> tree:int -> bool
(** Whether the (cached) tree still covers every alive reachable vertex over
    alive links. An unbuilt tree is valid iff the source is alive (it would
    be built on the surviving graph). *)

val surviving_tree : t -> src:int -> int option
(** Lowest tree id of [src] that is currently valid without a rebuild —
    the "alternative tree" fallback of §3.2 — or [None] if every tree of
    this source crosses a failure. *)

val repair_all : t -> int
(** Re-validate every cached tree, rebuilding the broken ones; returns how
    many were rebuilt. *)

val repairs : t -> int
(** Cumulative number of tree rebuilds caused by failures. *)

val repair_bytes : t -> int
(** Cumulative control traffic charged for repairs: one broadcast-sized FIB
    update per edge of each rebuilt tree. *)

val fib : t -> src:int -> tree:int -> int array
(** The [(src, tree)] broadcast FIB as one CSR array: with [n] vertices,
    cells [0 .. n] are offsets into the array itself, and the directed
    link ids from vertex [v] to its children are the cells
    [fib.(v) .. fib.(v + 1) - 1], in ascending child-vertex order.
    Forwarding a broadcast at [v] is a loop over that slice — no hashing,
    no allocation. The array is shared with the cache: do not mutate it.
    A repair builds a new array; one fetched earlier keeps describing the
    tree it came from. Raises [Invalid_argument] at build time if a tree
    edge is not a link of the topology. *)

val parent : t -> src:int -> tree:int -> int -> int
(** Parent of a vertex in the tree ([src] is its own parent). *)

val depth : t -> src:int -> tree:int -> int
(** Maximum hop count from the source to any vertex — the broadcast time in
    hops. *)

(** {3 Derived views}

    Rebuilt from the cached tree on every call, in time linear in the
    rack (or in the vertex's degree for {!children}); meant for tests,
    examples and experiments, not per-packet paths. *)

val children : t -> src:int -> tree:int -> int -> int list
(** Nodes to which a vertex forwards a [(src, tree)] broadcast packet, in
    ascending order: the destinations of its {!fib} slice. *)

val edges : t -> src:int -> tree:int -> (int * int) list
(** Tree edges as (parent, child) pairs, ascending by child;
    [Topology.vertex_count - 1] of them when every vertex is reachable. *)

val delivery_hops : t -> src:int -> tree:int -> int array
(** Per-vertex hop distance from the source along the tree ([-1] for
    vertices the tree does not reach), walked from the parent array. *)

(** {2 Overhead model (paper §3.2 and Fig. 9)} *)

val bytes_per_broadcast : Topology.t -> int
(** Total wire bytes of one 16-byte broadcast: 16 * (vertices - 1). *)

val analytic_overhead :
  Topology.t -> frac_small_bytes:float -> small_size:int -> large_size:int -> float
(** Fraction of total wire traffic consumed by flow-event broadcasts when a
    [frac_small_bytes] fraction of all payload bytes travels in flows of
    [small_size] bytes and the rest in flows of [large_size] bytes; every
    flow broadcasts a start and a finish event. Matches §3.2's examples:
    26.66%-per-10KB-flow relative overhead, 1.3% of capacity when 5% of
    bytes are in small flows. *)

val relative_flow_overhead : Topology.t -> flow_bytes:int -> float
(** Broadcast bytes (start + finish) over the expected wire bytes of a flow
    of the given size under minimal routing. *)
