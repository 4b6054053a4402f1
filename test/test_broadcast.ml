(* Tests for lib/broadcast: spanning trees, FIB, overhead model. *)

let tc name f = Alcotest.test_case name `Quick f

let torus888 = lazy (Topology.torus [| 8; 8; 8 |])

let tree_spans_everything () =
  let topo = Lazy.force torus888 in
  let b = Broadcast.make topo in
  let reached = Array.make (Topology.vertex_count topo) false in
  let rec walk v =
    Alcotest.(check bool) "visited once" false reached.(v);
    reached.(v) <- true;
    List.iter walk (Broadcast.children b ~src:0 ~tree:0 v)
  in
  walk 0;
  Alcotest.(check bool) "all vertices reached" true (Array.for_all Fun.id reached)

let tree_edge_count () =
  let topo = Lazy.force torus888 in
  let b = Broadcast.make topo in
  Alcotest.(check int) "n-1 edges" 511 (List.length (Broadcast.edges b ~src:3 ~tree:1))

let tree_depth_is_eccentricity () =
  let topo = Lazy.force torus888 in
  let b = Broadcast.make topo in
  (* Shortest-path tree depth = max distance from root = 12 on 8x8x8. *)
  for tree = 0 to 3 do
    Alcotest.(check int) "depth = diameter" 12 (Broadcast.depth b ~src:5 ~tree)
  done

let delivery_hops_are_shortest () =
  let topo = Lazy.force torus888 in
  let b = Broadcast.make topo in
  let hops = Broadcast.delivery_hops b ~src:9 ~tree:2 in
  for v = 0 to Topology.vertex_count topo - 1 do
    Alcotest.(check int) "tree delivery = shortest distance" (Topology.distance topo 9 v) hops.(v)
  done

let parents_consistent_with_children () =
  let topo = Topology.torus [| 4; 4 |] in
  let b = Broadcast.make topo in
  for v = 0 to 15 do
    List.iter
      (fun c -> Alcotest.(check int) "parent of child" v (Broadcast.parent b ~src:2 ~tree:0 c))
      (Broadcast.children b ~src:2 ~tree:0 v)
  done

let choose_tree_spreads () =
  let topo = Topology.torus [| 4; 4 |] in
  let b = Broadcast.make ~trees_per_source:4 topo in
  let rng = Util.Rng.create 3 in
  let seen = Array.make 4 false in
  for _ = 1 to 200 do
    seen.(Broadcast.choose_tree b rng ~src:0) <- true
  done;
  Alcotest.(check bool) "all trees used" true (Array.for_all Fun.id seen)

let bytes_per_broadcast_512 () =
  (* §3.2: "with a 512-node rack, each broadcast results in ~8 KB". *)
  let topo = Lazy.force torus888 in
  Alcotest.(check int) "16 * 511" 8176 (Broadcast.bytes_per_broadcast topo)

let relative_overhead_10kb () =
  (* §3.2: a 10 KB flow's start+finish broadcasts cost ~26.66% of its wire
     bytes on the 512-node 3D torus. *)
  let topo = Lazy.force torus888 in
  let ov = Broadcast.relative_flow_overhead topo ~flow_bytes:10_000 in
  Alcotest.(check bool) (Printf.sprintf "~0.27 (got %.4f)" ov) true (abs_float (ov -. 0.27) < 0.02)

let relative_overhead_10mb () =
  (* §5.1: for 10 MB flows the overhead is ~0.026%. *)
  let topo = Lazy.force torus888 in
  let ov = Broadcast.relative_flow_overhead topo ~flow_bytes:10_000_000 in
  Alcotest.(check bool) "~0.00027" true (abs_float (ov -. 0.00027) < 0.00005)

let analytic_overhead_5pct () =
  (* §3.2: "When 5% of the bytes are carried by small flows, the fraction of
     the network capacity used for broadcasting flow information is only
     1.3%." *)
  let topo = Lazy.force torus888 in
  let ov =
    Broadcast.analytic_overhead topo ~frac_small_bytes:0.05 ~small_size:10_000
      ~large_size:35_000_000
  in
  Alcotest.(check bool) (Printf.sprintf "~1.3%% (got %.2f%%)" (100. *. ov)) true
    (abs_float (ov -. 0.013) < 0.002)

let analytic_overhead_monotone () =
  let topo = Lazy.force torus888 in
  let prev = ref (-1.0) in
  List.iter
    (fun frac ->
      let ov =
        Broadcast.analytic_overhead topo ~frac_small_bytes:frac ~small_size:10_000
          ~large_size:35_000_000
      in
      Alcotest.(check bool) "monotone in small-flow bytes" true (ov >= !prev);
      prev := ov)
    [ 0.0; 0.1; 0.2; 0.5; 1.0 ]

let greater_diameter_lower_overhead () =
  (* Fig. 9: topologies with greater diameter have lower broadcast overhead
     because data travels more hops. *)
  let ov topo =
    Broadcast.analytic_overhead topo ~frac_small_bytes:0.2 ~small_size:10_000
      ~large_size:35_000_000
  in
  let torus3d = ov (Lazy.force torus888) in
  let mesh3d = ov (Topology.mesh [| 8; 8; 8 |]) in
  let torus2d = ov (Topology.torus [| 32; 16 |]) in
  Alcotest.(check bool) "mesh < torus3d" true (mesh3d < torus3d);
  Alcotest.(check bool) "2D torus < 3D torus" true (torus2d < torus3d)

let qcheck_tree_spans =
  QCheck.Test.make ~name:"every (src, tree) FIB spans the rack" ~count:50
    QCheck.(pair (int_bound 63) (int_bound 3))
    (fun (src, tree) ->
      let topo = Topology.torus [| 4; 4; 4 |] in
      let b = Broadcast.make topo in
      let count = ref 0 in
      let rec walk v =
        incr count;
        List.iter walk (Broadcast.children b ~src ~tree v)
      in
      walk src;
      !count = 64)

(* The flat FIB against the parent array it was built from, on every
   builder: each vertex's CSR slice lists the links to its parent-derived
   children in ascending vertex order — the order that keeps simulated
   outcomes unchanged. Then one cable fails and is restored: trees that
   crossed it are rebuilt once and stay rebuilt after the restore; the
   repair counts and bytes are pinned, since the FIB's layout must not
   change what repairs cost. The failed cable is the first one between
   two vertices of degree > 1, so the Clos case fails a leaf-spine
   cable. *)
let fib_matches_parent_children () =
  let builders =
    [
      ("torus", Topology.torus [| 4; 4; 4 |], (0, 1), 105, 105840);
      ("mesh", Topology.mesh [| 4; 4 |], (0, 1), 51, 12240);
      ("clos", Topology.clos ~leaves:4 ~spines:2 ~servers_per_leaf:3, (12, 16), 61, 16592);
      ("hypercube", Topology.hypercube 4, (0, 1), 48, 11520);
      ("flattened butterfly", Topology.flattened_butterfly 4, (0, 1), 23, 5520);
    ]
  in
  List.iter
    (fun (name, topo, (u, v), repairs, repair_bytes) ->
      let b = Broadcast.make topo in
      let n = Topology.vertex_count topo in
      let tps = Broadcast.trees_per_source b in
      let fibs () =
        Array.init (n * tps) (fun key -> Broadcast.fib b ~src:(key / tps) ~tree:(key mod tps))
      in
      let check_fibs fibs =
        Array.iteri
          (fun key fib ->
            let src = key / tps and tree = key mod tps in
            let parent = Array.init n (Broadcast.parent b ~src ~tree) in
            let kids = Topology.tree_children parent ~root:src in
            Alcotest.(check int) (name ^ ": offsets end the array") (Array.length fib) fib.(n);
            for x = 0 to n - 1 do
              let slice = Array.to_list (Array.sub fib fib.(x) (fib.(x + 1) - fib.(x))) in
              let expect = List.map (Topology.find_link_id topo x) kids.(x) in
              Alcotest.(check (list int)) (Printf.sprintf "%s: fib (%d, %d) at %d" name src tree x)
                expect slice;
              Alcotest.(check (list int)) (name ^ ": children are the slice's ends")
                kids.(x) (Broadcast.children b ~src ~tree x)
            done)
          fibs
      in
      let before = fibs () in
      check_fibs before;
      Topology.fail_link topo u v;
      let during = fibs () in
      check_fibs during;
      let dead = [ Topology.find_link_id topo u v; Topology.find_link_id topo v u ] in
      let rebuilt = ref 0 in
      Array.iteri
        (fun key fib ->
          if fib != before.(key) then incr rebuilt;
          Array.iteri
            (fun i l ->
              if i > n then
                Alcotest.(check bool) (name ^ ": no tree crosses the dead cable") false
                  (List.mem l dead))
            fib)
        during;
      Alcotest.(check int) (name ^ ": rebuilt trees = repairs") (Broadcast.repairs b) !rebuilt;
      Topology.restore_link topo u v;
      let after = fibs () in
      Array.iteri
        (fun key fib ->
          Alcotest.(check bool) (name ^ ": restore keeps the rebuilt tree") true
            (fib == during.(key)))
        after;
      Alcotest.(check int) (name ^ ": repairs") repairs (Broadcast.repairs b);
      Alcotest.(check int) (name ^ ": repair bytes") repair_bytes (Broadcast.repair_bytes b))
    builders

let suites =
  [
    ( "broadcast",
      [
        tc "tree spans every vertex exactly once" tree_spans_everything;
        tc "tree has n-1 edges" tree_edge_count;
        tc "tree depth equals eccentricity" tree_depth_is_eccentricity;
        tc "delivery hops are shortest distances" delivery_hops_are_shortest;
        tc "parents consistent with children" parents_consistent_with_children;
        tc "tree choice load balances" choose_tree_spreads;
        tc "8 KB per 512-node broadcast (paper)" bytes_per_broadcast_512;
        tc "26.66% overhead for 10 KB flows (paper)" relative_overhead_10kb;
        tc "0.026% overhead for 10 MB flows (paper)" relative_overhead_10mb;
        tc "1.3% capacity at 5% small bytes (paper)" analytic_overhead_5pct;
        tc "overhead monotone in small-flow share" analytic_overhead_monotone;
        tc "greater diameter, lower overhead (Fig 9)" greater_diameter_lower_overhead;
        tc "flat FIB matches parent-derived children" fib_matches_parent_children;
        QCheck_alcotest.to_alcotest qcheck_tree_spans;
      ] );
  ]
