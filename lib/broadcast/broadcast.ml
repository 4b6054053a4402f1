(* The FIB of one (source, tree) is a single CSR int array. Its first
   [n + 1] cells are offsets into the array itself: the link ids from
   vertex [v] to its children sit at [fib.(v) .. fib.(v + 1) - 1], in
   ascending child-vertex order. *)
type tree = {
  parent : int array;
  fib : int array;
  depth : int;
  mutable version : int;  (* Topology.version the tree was last validated against *)
}

type t = {
  topo : Topology.t;
  trees_per_source : int;
  cache : tree option array;  (* index = src * trees_per_source + tree id *)
  mutable repairs : int;
  mutable repair_bytes : int;
}

let make ?(trees_per_source = 4) topo =
  if trees_per_source < 1 then invalid_arg "Broadcast.make: trees_per_source < 1";
  {
    topo;
    trees_per_source;
    cache = Array.make (Topology.vertex_count topo * trees_per_source) None;
    repairs = 0;
    repair_bytes = 0;
  }

let topo t = t.topo
let trees_per_source t = t.trees_per_source
let repairs t = t.repairs
let repair_bytes t = t.repair_bytes

let is_edge parent ~root v = v <> root && parent.(v) >= 0

(* A tree is valid when every alive vertex reachable from the source is
   covered by an alive tree edge. Checking edges locally suffices: a broken
   chain higher up surfaces as a dead (or missing) edge at the first alive,
   reachable vertex below the break. *)
let check_tree t ~src parent =
  let topo = t.topo in
  if not (Topology.node_alive topo src) then false
  else begin
    let d = Topology.dist_to topo src in
    let ok = ref true in
    let n = Array.length parent in
    for v = 0 to n - 1 do
      if !ok && v <> src && Topology.node_alive topo v && d.(v) < max_int then begin
        let p = parent.(v) in
        if p < 0 then ok := false
        else begin
          let l = Topology.find_link_id topo p v in
          if l < 0 || not (Topology.link_alive topo l) then ok := false
        end
      end
    done;
    !ok
  end

(* Children are filled in ascending vertex order, the order
   [Topology.tree_children] lists them in: forwarding order fixes the
   engine's FIFO tie-break between the copies' same-instant events, so
   changing it would move every simulated outcome. *)
let build_fib topo parent ~root =
  let n = Array.length parent in
  let deg = Array.make n 0 in
  let edges = ref 0 in
  for v = 0 to n - 1 do
    if is_edge parent ~root v then begin
      deg.(parent.(v)) <- deg.(parent.(v)) + 1;
      incr edges
    end
  done;
  let fib = Array.make (n + 1 + !edges) 0 in
  fib.(0) <- n + 1;
  for v = 0 to n - 1 do
    fib.(v + 1) <- fib.(v) + deg.(v)
  done;
  let next = Array.sub fib 0 n in
  for v = 0 to n - 1 do
    if is_edge parent ~root v then begin
      let p = parent.(v) in
      let l = Topology.find_link_id topo p v in
      if l < 0 then invalid_arg "Broadcast: tree edge joins non-adjacent vertices";
      fib.(next.(p)) <- l;
      next.(p) <- next.(p) + 1
    end
  done;
  fib

let build_tree t ~src ~tree =
  let parent = Topology.shortest_path_tree t.topo ~root:src ~variant:tree in
  {
    parent;
    fib = build_fib t.topo parent ~root:src;
    depth = Topology.tree_depth parent ~root:src;
    version = Topology.version t.topo;
  }

let get_tree t ~src ~tree =
  if tree < 0 || tree >= t.trees_per_source then invalid_arg "Broadcast: tree id out of range";
  let key = (src * t.trees_per_source) + tree in
  let v = Topology.version t.topo in
  match t.cache.(key) with
  | Some tr when tr.version = v -> tr
  | Some tr when check_tree t ~src tr.parent ->
      (* Survived the failure untouched; just re-stamp. *)
      tr.version <- v;
      tr
  | Some _ ->
      (* Crosses a dead element: rebuild on the surviving graph and charge
         the FIB re-announcement (one broadcast-sized update per edge). *)
      let tr = build_tree t ~src ~tree in
      let edges = Array.length tr.fib - Array.length tr.parent - 1 in
      t.repairs <- t.repairs + 1;
      t.repair_bytes <- t.repair_bytes + (Wire.broadcast_size * edges);
      t.cache.(key) <- Some tr;
      tr
  | None ->
      let tr = build_tree t ~src ~tree in
      t.cache.(key) <- Some tr;
      tr

let tree_valid t ~src ~tree =
  if tree < 0 || tree >= t.trees_per_source then invalid_arg "Broadcast: tree id out of range";
  match t.cache.((src * t.trees_per_source) + tree) with
  | Some tr -> tr.version = Topology.version t.topo || check_tree t ~src tr.parent
  | None -> Topology.node_alive t.topo src

let surviving_tree t ~src =
  let rec go tree =
    if tree >= t.trees_per_source then None
    else if tree_valid t ~src ~tree then Some tree
    else go (tree + 1)
  in
  go 0

let repair_all t =
  let before = t.repairs in
  Array.iteri
    (fun key tr ->
      if Option.is_some tr then
        ignore
          (get_tree t ~src:(key / t.trees_per_source) ~tree:(key mod t.trees_per_source)))
    t.cache;
  t.repairs - before

let choose_tree t rng ~src:_ = Util.Rng.int rng t.trees_per_source

let fib t ~src ~tree = (get_tree t ~src ~tree).fib
let parent t ~src ~tree v = (get_tree t ~src ~tree).parent.(v)
let depth t ~src ~tree = (get_tree t ~src ~tree).depth

let children t ~src ~tree v =
  let fib = fib t ~src ~tree in
  List.init (fib.(v + 1) - fib.(v)) (fun i -> Topology.link_dst t.topo fib.(fib.(v) + i))

let delivery_hops t ~src ~tree =
  let parent = (get_tree t ~src ~tree).parent in
  let hops = Array.make (Array.length parent) (-1) in
  hops.(src) <- 0;
  let rec hop v =
    if hops.(v) < 0 then hops.(v) <- hop parent.(v) + 1;
    hops.(v)
  in
  Array.iteri (fun v p -> if p >= 0 then ignore (hop v)) parent;
  hops

let edges t ~src ~tree =
  let tr = get_tree t ~src ~tree in
  let acc = ref [] in
  Array.iteri (fun v p -> if is_edge tr.parent ~root:src v then acc := (p, v) :: !acc) tr.parent;
  List.rev !acc

(* -- overhead model ------------------------------------------------------ *)

let bytes_per_broadcast topo = Wire.broadcast_size * (Topology.vertex_count topo - 1)

let relative_flow_overhead topo ~flow_bytes =
  let bcast = 2 * bytes_per_broadcast topo in
  let wire = float_of_int flow_bytes *. Topology.average_distance topo in
  float_of_int bcast /. wire

let analytic_overhead topo ~frac_small_bytes ~small_size ~large_size =
  if frac_small_bytes < 0.0 || frac_small_bytes > 1.0 then
    invalid_arg "Broadcast.analytic_overhead: fraction out of range";
  let per_flow = float_of_int (2 * bytes_per_broadcast topo) in
  let hops = Topology.average_distance topo in
  (* Per unit of payload bytes: flows/byte in each class times broadcast
     bytes per flow, against payload-bytes * average path length of wire
     traffic. *)
  let bcast_wire =
    (frac_small_bytes /. float_of_int small_size *. per_flow)
    +. ((1.0 -. frac_small_bytes) /. float_of_int large_size *. per_flow)
  in
  let data_wire = hops in
  bcast_wire /. (bcast_wire +. data_wire)
