(* Tests for the incremental allocator (Waterfill.Inc): differential
   property tests against the reference progressive-filling oracle on
   randomized churn sequences, the clean-epoch O(1) path (no heap
   operation) and allocation-free clean and dirty epochs. *)

let tc name f = Alcotest.test_case name `Quick f

module U = Util.Units

(* Wrap/unwrap shims so the scenarios below stay in raw numbers. *)
let lk = U.pairs_of_floats
let caps = U.of_floats
let inc_rate inc ~id = U.to_float (Congestion.Waterfill.Inc.rate inc ~id)

(* Mirror of the incremental state kept as plain lists, re-allocated from
   scratch for the oracle on every epoch. *)
type mirror = {
  mutable next_id : int;
  mutable live :
    (int * float * int * U.byte_rate option * (int * U.fraction) array) list;
      (* id, weight, priority, demand, links *)
}

let protocols = [| Routing.Rps; Routing.Dor; Routing.Vlb; Routing.Wlb |]

let random_links ctx rng =
  let h = Topology.host_count (Routing.topo ctx) in
  let src = Util.Rng.int rng h in
  let dst = (src + 1 + Util.Rng.int rng (h - 1)) mod h in
  Routing.fractions ctx (Util.Rng.pick rng protocols) ~src ~dst

let random_demand rng =
  if Util.Rng.bool rng then Some (U.byte_rate (Util.Rng.float rng 2.0)) else None

let apply_random_op ctx rng inc m =
  let n = List.length m.live in
  match Util.Rng.int rng (if n = 0 then 1 else 4) with
  | 0 ->
      (* open *)
      let id = m.next_id in
      m.next_id <- id + 1;
      let weight = 0.5 +. Util.Rng.float rng 2.5 in
      let priority = Util.Rng.int rng 3 in
      let demand = random_demand rng in
      let links = random_links ctx rng in
      Congestion.Waterfill.Inc.add_flow ~weight ~priority ?demand inc ~id links;
      m.live <- (id, weight, priority, demand, links) :: m.live
  | 1 ->
      (* close *)
      let id, _, _, _, _ = List.nth m.live (Util.Rng.int rng n) in
      Congestion.Waterfill.Inc.remove_flow inc ~id;
      m.live <- List.filter (fun (i, _, _, _, _) -> i <> id) m.live
  | 2 ->
      (* demand update *)
      let id, w, p, _, links = List.nth m.live (Util.Rng.int rng n) in
      let demand = random_demand rng in
      Congestion.Waterfill.Inc.set_demand inc ~id demand;
      m.live <-
        List.map (fun ((i, _, _, _, _) as f) -> if i = id then (id, w, p, demand, links) else f) m.live
  | _ ->
      (* reroute *)
      let id, w, p, d, _ = List.nth m.live (Util.Rng.int rng n) in
      let links = random_links ctx rng in
      Congestion.Waterfill.Inc.set_links inc ~id links;
      m.live <-
        List.map (fun ((i, _, _, _, _) as f) -> if i = id then (id, w, p, d, links) else f) m.live

let check_against_reference ~headroom ~capacities inc m =
  Congestion.Waterfill.Inc.allocate inc;
  let flows =
    Array.of_list
      (List.map
         (fun (id, weight, priority, demand, links) ->
           Congestion.Waterfill.flow ~weight ~priority ?demand ~id links)
         m.live)
  in
  let expected =
    U.floats_of (Congestion.Waterfill.allocate_reference ~headroom ~capacities flows)
  in
  Array.iteri
    (fun i f ->
      let got = inc_rate inc ~id:f.Congestion.Waterfill.id in
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "flow %d" f.Congestion.Waterfill.id)
        expected.(i) got)
    flows

(* >= 200 random churn sequences on a 4x4 torus: after every burst of churn
   the incremental rates must equal the reference oracle's. *)
let inc_matches_reference_on_churn () =
  let topo = Topology.torus [| 4; 4 |] in
  let ctx = Routing.make topo in
  let capacities = Array.make (Topology.link_count topo) (U.byte_rate 1.25) in
  let headroom = U.fraction 0.05 in
  let rng = Util.Rng.create 42 in
  for _seq = 1 to 200 do
    let inc = Congestion.Waterfill.Inc.create ~headroom ~capacities () in
    let m = { next_id = 0; live = [] } in
    let epochs = 2 + Util.Rng.int rng 4 in
    for _epoch = 1 to epochs do
      let ops = 1 + Util.Rng.int rng 8 in
      for _op = 1 to ops do
        apply_random_op ctx rng inc m
      done;
      check_against_reference ~headroom ~capacities inc m
    done
  done

(* A clean epoch must not touch the heap at all — the O(1) cached path. *)
let clean_epoch_zero_heap_ops () =
  let topo = Topology.torus [| 4; 4 |] in
  let ctx = Routing.make topo in
  let capacities = Array.make (Topology.link_count topo) (U.byte_rate 1.25) in
  let inc = Congestion.Waterfill.Inc.create ~headroom:(U.fraction 0.05) ~capacities () in
  let rng = Util.Rng.create 7 in
  for id = 0 to 49 do
    Congestion.Waterfill.Inc.add_flow inc ~id (random_links ctx rng)
  done;
  Congestion.Waterfill.Inc.allocate inc;
  let ops = Congestion.Waterfill.Inc.heap_ops inc in
  Alcotest.(check bool) "dirty epoch used the heap" true (ops > 0);
  let before = Array.init 50 (fun id -> inc_rate inc ~id) in
  (* Re-announcing the demand a flow already has keeps the epoch clean. *)
  Congestion.Waterfill.Inc.set_demand inc ~id:3 None;
  Alcotest.(check bool) "still clean" false (Congestion.Waterfill.Inc.is_dirty inc);
  Congestion.Waterfill.Inc.allocate inc;
  Alcotest.(check int) "zero heap operations" ops (Congestion.Waterfill.Inc.heap_ops inc);
  Array.iteri
    (fun id r ->
      Alcotest.(check (float 0.0)) (Printf.sprintf "rate %d unchanged" id) r (inc_rate inc ~id))
    before

(* Neither epoch path allocates: a clean epoch costs no minor-heap words,
   and once the arena has grown to the flow set neither does a dirty one
   (here dirtied by a headroom retune, which itself allocates nothing). *)
let allocate_zero_minor_words () =
  let topo = Topology.torus [| 4; 4 |] in
  let ctx = Routing.make topo in
  let capacities = Array.make (Topology.link_count topo) (U.byte_rate 1.25) in
  let inc = Congestion.Waterfill.Inc.create ~headroom:(U.fraction 0.05) ~capacities () in
  let rng = Util.Rng.create 11 in
  for id = 0 to 63 do
    Congestion.Waterfill.Inc.add_flow inc ~id (random_links ctx rng)
  done;
  Congestion.Waterfill.Inc.allocate inc;
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    Congestion.Waterfill.Inc.allocate inc
  done;
  Alcotest.(check (float 0.0)) "clean: zero minor words" 0.0 (Gc.minor_words () -. before);
  let lo = U.fraction 0.05 and hi = U.fraction 0.1 in
  let ops = Congestion.Waterfill.Inc.heap_ops inc in
  let before = Gc.minor_words () in
  for i = 1 to 100 do
    Congestion.Waterfill.Inc.set_headroom inc (if i land 1 = 0 then lo else hi);
    Congestion.Waterfill.Inc.allocate inc
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "dirty epochs recomputed" true
    (Congestion.Waterfill.Inc.heap_ops inc > ops);
  Alcotest.(check (float 0.0)) "dirty: zero minor words" 0.0 words

let dirty_tracking_lifecycle () =
  let capacities = caps [| 1.0 |] in
  let inc = Congestion.Waterfill.Inc.create ~capacities () in
  Alcotest.(check bool) "dirty before first allocate" true
    (Congestion.Waterfill.Inc.is_dirty inc);
  Congestion.Waterfill.Inc.allocate inc;
  Alcotest.(check bool) "clean after allocate" false (Congestion.Waterfill.Inc.is_dirty inc);
  Congestion.Waterfill.Inc.add_flow inc ~id:5 (lk [| (0, 1.0) |]);
  Alcotest.(check bool) "open marks dirty" true (Congestion.Waterfill.Inc.is_dirty inc);
  Alcotest.(check (float 0.0)) "zero before allocate" 0.0 (inc_rate inc ~id:5);
  Congestion.Waterfill.Inc.allocate inc;
  Alcotest.(check (float 1e-9)) "full link" 1.0 (inc_rate inc ~id:5);
  Congestion.Waterfill.Inc.add_flow inc ~id:9 (lk [| (0, 1.0) |]);
  Congestion.Waterfill.Inc.allocate inc;
  Alcotest.(check (float 1e-9)) "half" 0.5 (inc_rate inc ~id:9);
  Congestion.Waterfill.Inc.remove_flow inc ~id:5;
  Alcotest.(check bool) "close marks dirty" true (Congestion.Waterfill.Inc.is_dirty inc);
  (* Swap-removal must keep the surviving flow's cached rate addressable. *)
  Alcotest.(check (float 1e-9)) "survivor rate intact" 0.5 (inc_rate inc ~id:9);
  Congestion.Waterfill.Inc.allocate inc;
  Alcotest.(check (float 1e-9)) "survivor takes the link" 1.0 (inc_rate inc ~id:9);
  Alcotest.(check int) "one live flow" 1 (Congestion.Waterfill.Inc.live_flows inc);
  Alcotest.check_raises "unknown id" (Invalid_argument "Waterfill.Inc: unknown flow id")
    (fun () -> ignore (Congestion.Waterfill.Inc.rate inc ~id:5));
  Alcotest.check_raises "duplicate id" (Invalid_argument "Waterfill.Inc: duplicate flow id")
    (fun () -> Congestion.Waterfill.Inc.add_flow inc ~id:9 (lk [| (0, 1.0) |]))

let inc_input_validation () =
  let inc = Congestion.Waterfill.Inc.create ~capacities:(caps [| 1.0 |]) () in
  Alcotest.check_raises "bad weight" (Invalid_argument "Waterfill: non-positive weight")
    (fun () -> Congestion.Waterfill.Inc.add_flow ~weight:0.0 inc ~id:0 (lk [| (0, 1.0) |]));
  Alcotest.check_raises "bad link" (Invalid_argument "Waterfill: link id out of range")
    (fun () -> Congestion.Waterfill.Inc.add_flow inc ~id:0 (lk [| (3, 1.0) |]));
  Alcotest.check_raises "bad fraction" (Invalid_argument "Waterfill: non-positive fraction")
    (fun () -> Congestion.Waterfill.Inc.add_flow inc ~id:0 (lk [| (0, 0.0) |]));
  Alcotest.check_raises "bad headroom" (Invalid_argument "Waterfill: headroom out of range")
    (fun () ->
      ignore
        (Congestion.Waterfill.Inc.create ~headroom:(U.fraction 1.0)
           ~capacities:(caps [| 1.0 |]) ()))

let suites =
  [
    ( "incremental",
      [
        tc "matches reference across 200 churn sequences" inc_matches_reference_on_churn;
        tc "clean epoch performs zero heap operations" clean_epoch_zero_heap_ops;
        tc "clean and dirty epochs allocate nothing" allocate_zero_minor_words;
        tc "dirty tracking across open/close" dirty_tracking_lifecycle;
        tc "input validation" inc_input_validation;
      ] );
  ]
