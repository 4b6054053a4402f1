(* The traced run: one more repetition of the workload with an arrive tap
   on the fabric and the engine run in fixed simulated-time slices, then
   replays of single layers on the same inputs — Net alone, and the rate
   allocator on live flow sets sampled at slice ends. Every per-layer
   metric is read from outside through public functions. Spans of the
   run are kept in memory and written as Chrome trace-event JSON. *)

open Sim
module Wf = Congestion.Waterfill

let slice_ns = 20_000

(* The Waterfill oracle tolerance: relative error of any flow's rate. *)
let rate_tolerance = 1e-6

let kinds =
  [
    ("data", Net.code_data);
    ("ack", Net.code_ack);
    ("bcast", Net.code_bcast);
    ("digest", Net.code_digest);
    ("nack", Net.code_nack);
    ("sync", Net.code_sync);
    ("pause", Net.code_pause);
  ]

type run = {
  setup : Workloads.setup;
  hops : int array;  (** arrivals per packet kind code *)
  bcast_events : int;  (** distinct flow-event broadcasts seen on the wire *)
  pending_peak : int;
  slice_s : float list;
  live : int array list;  (** live flow ids at each slice end, in order *)
  run_s : float;
}

let live_ids sim =
  Metrics.all (R2c2_sim.metrics sim)
  |> List.filter_map (fun (f : Metrics.flow) -> if f.finish_ns < 0 then Some f.id else None)
  |> Array.of_list

let traced_rep tr ~root w ~seed =
  let s = Workloads.setup w ~seed in
  let st = s.stamps in
  let p = Spans.add tr ~parent:root "setup" ~start:st.(0) ~stop:st.(3) in
  List.iteri
    (fun i name -> ignore (Spans.add tr ~parent:p name ~start:st.(i) ~stop:st.(i + 1)))
    [ "topology"; "sim.create"; "workload" ];
  let net = R2c2_sim.net s.sim and eng = R2c2_sim.engine s.sim in
  let hops = Array.make 8 0 and seen = Hashtbl.create 1024 in
  Net.set_arrive_tap net (fun ~node:_ pkt ->
      let k = Net.kind net pkt in
      hops.(k) <- hops.(k) + 1;
      if k = Net.code_bcast then begin
        let id = Net.bcast_id net pkt in
        if not (Hashtbl.mem seen id) then Hashtbl.add seen id ()
      end);
  let pending_peak = ref 0 and slice_s = ref [] and live = ref [] in
  let (), run_s =
    Spans.time tr ~parent:root "run_engine" (fun p ->
        let k = ref 1 in
        while Engine.pending eng > 0 do
          let (), dt =
            Spans.time tr ~parent:p "slice" (fun _ ->
                R2c2_sim.run_engine ~until_ns:(!k * slice_ns) s.sim)
          in
          slice_s := dt :: !slice_s;
          pending_peak := max !pending_peak (Engine.pending eng);
          live := live_ids s.sim :: !live;
          incr k
        done)
  in
  {
    setup = s;
    hops;
    bcast_events = Hashtbl.length seen;
    pending_peak = !pending_peak;
    slice_s = !slice_s;
    live = List.rev !live;
    run_s;
  }

(* Net alone on the same topology: one stream per host along a fixed
   shortest path of the workload's own pairs, eight MTU packets in flight
   each, until about [target_hops] hops have been forwarded. *)
let net_only w (specs : Workload.Flowgen.spec array) ~target_hops =
  let topo = Topology.torus w.Workloads.dims in
  let rctx = Routing.make topo in
  let eng = Engine.create () in
  let net =
    Net.create eng topo ~link_gbps:w.cfg.link_gbps ~hop_latency_ns:w.cfg.hop_latency_ns ()
  in
  let streams = min (Topology.host_count topo) (Array.length specs) in
  let paths =
    Array.init streams (fun i ->
        Routing.ecmp_path rctx ~flow_id:i ~src:specs.(i).src ~dst:specs.(i).dst)
  in
  let routes = Array.map (Net.intern_route net) paths in
  let path_hops = Array.fold_left (fun a p -> a + Array.length p - 1) 0 paths in
  let per_stream = max 8 (target_hops / path_hops) in
  let sent = Array.make streams 0 in
  let send i =
    Net.send_data net ~flow:i ~seq:sent.(i) ~last:false ~bytes:w.cfg.mtu ~route:routes.(i);
    sent.(i) <- sent.(i) + 1
  in
  Net.on_deliver net (fun pkt ->
      let i = Net.data_flow net pkt in
      if sent.(i) < per_stream then send i);
  for i = 0 to streams - 1 do
    for _ = 1 to 8 do
      send i
    done
  done;
  let t0 = Unix.gettimeofday () in
  Engine.run eng;
  let dt = Unix.gettimeofday () -. t0 in
  (dt, per_stream * path_hops)

(* Up to [n] snapshots spread evenly over the non-empty ones. *)
let sample n snaps =
  let a = Array.of_list (List.filter (fun s -> Array.length s > 0) snaps) in
  let m = Array.length a in
  if m <= n then Array.to_list a else List.init n (fun i -> a.(i * (m - 1) / (n - 1)))

let max_rel_err a b =
  let e = ref 0.0 in
  Array.iteri
    (fun i x ->
      let x = Util.Units.to_float x and y = Util.Units.to_float b.(i) in
      e := Float.max !e (Float.abs (x -. y) /. Float.max (Float.abs y) 1e-12))
    a;
  !e

type replay = {
  full_ms : float list;
  inc_ms : float list;
  live_peak : int;
  inc_err : float;  (** Inc against full allocation, worst epoch *)
  oracle_err : float;  (** full allocation against the reference, one epoch *)
  oracle_flows : int;
}

(* Replays the sampled live flow sets through the allocator: a full
   [Waterfill.allocate] on each, the same sets fed as open/close diffs to
   one [Waterfill.Inc] state, and one epoch checked against the textbook
   [allocate_reference]. Fractions come from [Routing.fractions], as the
   simulator computes them for its RPS flows. *)
let waterfill_replay tr ~root w (s : Workloads.setup) snaps =
  let topo = R2c2_sim.topology s.sim in
  let rctx = Routing.make topo in
  let capacities =
    Array.make (Topology.link_count topo) (Util.Units.byte_rate_of_gbps w.Workloads.cfg.link_gbps)
  in
  let headroom = w.cfg.headroom in
  let links = Hashtbl.create 1024 in
  let links_of id =
    match Hashtbl.find_opt links id with
    | Some l -> l
    | None ->
        let sp = s.specs.(id) in
        let l = Routing.fractions rctx Routing.Rps ~src:sp.src ~dst:sp.dst in
        Hashtbl.replace links id l;
        l
  in
  let flows ids = Array.map (fun id -> Wf.flow ~id (links_of id)) ids in
  let epochs = sample 12 snaps in
  let inc = Wf.Inc.create ~headroom ~capacities () in
  let prev = Hashtbl.create 1024 in
  let full_ms = ref [] and inc_ms = ref [] and inc_err = ref 0.0 in
  List.iteri
    (fun e ids ->
      let fl = flows ids in
      let rates, dt =
        Spans.time tr ~parent:root "waterfill.full" (fun _ -> Wf.allocate ~headroom ~capacities fl)
      in
      full_ms := (dt *. 1e3) :: !full_ms;
      let cur = Hashtbl.create (Array.length ids) in
      Array.iter (fun id -> Hashtbl.replace cur id ()) ids;
      Hashtbl.iter (fun id () -> if not (Hashtbl.mem cur id) then Wf.Inc.remove_flow inc ~id) prev;
      Array.iter
        (fun id -> if not (Hashtbl.mem prev id) then Wf.Inc.add_flow inc ~id (links_of id))
        ids;
      Hashtbl.reset prev;
      Hashtbl.iter (fun id () -> Hashtbl.replace prev id ()) cur;
      let dirty = Wf.Inc.is_dirty inc in
      let (), dt = Spans.time tr ~parent:root "waterfill.inc" (fun _ -> Wf.Inc.allocate inc) in
      (* The first epoch builds the state from empty and an unchanged flow
         set costs nothing; only changed later epochs are timed. *)
      if e > 0 && dirty then inc_ms := (dt *. 1e3) :: !inc_ms;
      let inc_rates = Array.map (fun id -> Wf.Inc.rate inc ~id) ids in
      inc_err := Float.max !inc_err (max_rel_err inc_rates rates))
    epochs;
  let oracle_ids =
    List.fold_left (fun a ids -> if Array.length ids > Array.length a then ids else a) [||] epochs
  in
  let fl = flows oracle_ids in
  let oracle_err, _ =
    Spans.time tr ~parent:root "waterfill.oracle" (fun _ ->
        max_rel_err
          (Wf.allocate ~headroom ~capacities fl)
          (Wf.allocate_reference ~headroom ~capacities fl))
  in
  {
    full_ms = !full_ms;
    inc_ms = !inc_ms;
    live_peak = List.fold_left (fun a ids -> max a (Array.length ids)) 0 snaps;
    inc_err = !inc_err;
    oracle_err;
    oracle_flows = Array.length oracle_ids;
  }

(* An untraced repetition of the same input, run just before the traced
   one so that both find the heap equally warm: the base for
   [trace.overhead_pct] and the per-hop costs. *)
let untraced_rep w ~seed =
  let s = Workloads.setup w ~seed in
  let run_s, minor_words = Workloads.run s in
  (run_s, minor_words, (Workloads.outcome w s).digest)

(* Runs the traced repetition and the replays; returns the per-layer
   metrics, the checks they add, and notes on metrics that do not apply. *)
let per_layer w ~seed ~trace_path ~digest ~setup_parts =
  let base_s, base_words, base_digest = untraced_rep w ~seed in
  let tr = Spans.create () in
  let (r, rp, (net_s, net_hops)), _ =
    Spans.time tr "traced-run" (fun root ->
        let r = traced_rep tr ~root w ~seed in
        let rp = waterfill_replay tr ~root w r.setup r.live in
        let nr, _ =
          Spans.time tr ~parent:root "net-only" (fun _ ->
              net_only w r.setup.specs ~target_hops:3_000_000)
        in
        (r, rp, nr))
  in
  Spans.write tr trace_path;
  let o = Workloads.outcome w r.setup in
  let res = R2c2_sim.results r.setup.sim in
  let total_hops = Array.fold_left ( + ) 0 r.hops in
  let ctrl_hops = total_hops - r.hops.(Net.code_data) - r.hops.(Net.code_ack) in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let med = Calc.median in
  let med_or_0 = function [] -> 0.0 | l -> med l in
  let sim_ns_per_hop = base_s *. 1e9 /. float_of_int total_hops in
  let net_ns_per_hop = net_s *. 1e9 /. float_of_int net_hops in
  let per_recompute_ms =
    med_or_0 (if w.cfg.control = R2c2_sim.Per_node then rp.full_ms else rp.inc_ms)
  in
  let part i = med (List.map (fun p -> p.(i)) setup_parts) in
  let m name value unit = { Calc.name; value; unit } in
  let metrics =
    [
      m "topology.build_s" (part 0) "s";
      m "sim.create_s" (part 1) "s";
      m "workload.gen_s" (part 2) "s";
      m "engine.pending_peak" (float_of_int r.pending_peak) "count";
    ]
    @ List.map (fun (k, c) -> m ("net.hops." ^ k) (float_of_int r.hops.(c)) "count") kinds
    @ [
        m "net.drops" (float_of_int res.drops) "count";
        m "net.max_queue_kb"
          (float_of_int (Array.fold_left max 0 res.max_queue) /. 1e3)
          "KB";
        m "net.packets_peak"
          (float_of_int (Net.packets_high_water (R2c2_sim.net r.setup.sim)))
          "count";
        m "net.ns_per_hop" net_ns_per_hop "ns";
        m "sim.ns_per_hop" sim_ns_per_hop "ns";
        m "sim.words_per_hop" (base_words /. float_of_int total_hops) "words";
        m "sim.overhead_ns_per_hop" (sim_ns_per_hop -. net_ns_per_hop) "ns";
        m "broadcast.ctrl_mb" (Util.Units.to_float res.control_wire_bytes /. 1e6) "MB";
        m "broadcast.hops_per_event" (ratio r.hops.(Net.code_bcast) r.bcast_events) "hops";
        m "rbcast.nacks" (float_of_int res.nacks_sent) "count";
        m "rbcast.retransmits" (float_of_int res.event_retransmits) "count";
        m "rbcast.syncs" (float_of_int res.syncs_sent) "count";
        m "rbcast.dups_absorbed" (float_of_int res.dup_events_absorbed) "count";
        m "rbcast.useful_ratio" (ratio r.hops.(Net.code_bcast) ctrl_hops) "ratio";
        m "waterfill.recomputes" (float_of_int res.recomputes) "count";
        m "waterfill.full_ms" (med_or_0 rp.full_ms) "ms";
        m "waterfill.inc_ms" (med_or_0 rp.inc_ms) "ms";
        m "waterfill.live_peak" (float_of_int rp.live_peak) "count";
        m "waterfill.est_share"
          (float_of_int res.recomputes *. per_recompute_ms /. 1e3 /. base_s)
          "ratio";
        m "slice.wall_ms_p50" (med r.slice_s *. 1e3) "ms";
        m "slice.wall_ms_max" (List.fold_left Float.max 0.0 r.slice_s *. 1e3) "ms";
        m "trace.overhead_pct" (100.0 *. (r.run_s -. base_s) /. base_s) "%";
      ]
  in
  let checks =
    o.checks
    @ [
        ( Printf.sprintf "traced digest %s = untraced digests %s, %s" o.digest digest base_digest,
          o.digest = digest && base_digest = digest );
        ( Printf.sprintf "Waterfill.allocate vs allocate_reference on %d live flows: %.2e <= %.0e"
            rp.oracle_flows rp.oracle_err rate_tolerance,
          rp.oracle_err <= rate_tolerance );
        ( Printf.sprintf "Waterfill.Inc vs allocate on %d epochs: %.2e <= %.0e"
            (List.length rp.full_ms) rp.inc_err rate_tolerance,
          rp.inc_err <= rate_tolerance );
      ]
  in
  let notes =
    (if w.cfg.reliable_bcast then []
     else
       [
         "rbcast.*: reliable broadcast is off, so no NACK, retransmit, sync or duplicate \
          can occur; useful_ratio is 1 by construction";
       ])
    @ (if rp.inc_ms <> [] then []
       else [ "waterfill.inc_ms: no sampled epoch after the first changed the live flow set" ])
    @ (if res.recomputes > 0 then []
       else
         [
           "waterfill.recomputes: no flow became visible at a rate epoch before it finished, \
            so est_share is 0";
         ])
    @ [
        Printf.sprintf
          "waterfill.inc_ms over %d changed epochs; waterfill.est_share uses the %s cost \
           per recompute"
          (List.length rp.inc_ms)
          (if w.cfg.control = R2c2_sim.Per_node then "full allocate" else "Inc.allocate");
        Printf.sprintf "%d slices of %d ns simulated time; %d flow-event broadcasts"
          (List.length r.slice_s) slice_ns r.bcast_events;
      ]
  in
  (metrics, checks, notes)
