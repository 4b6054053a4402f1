(* Tests for lib/sim: event engine, packet fabric, the three transports,
   metrics, and the reliability extension. *)

let tc name f = Alcotest.test_case name `Quick f

module U = Util.Units

(* Unwrap a flow's throughput for the raw-number checks below. *)
let tput f = U.to_float (Sim.Metrics.throughput_gbps f)

(* -- engine --------------------------------------------------------------- *)

let engine_time_order () =
  let eng = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.at eng 30 (fun () -> log := 30 :: !log);
  Sim.Engine.at eng 10 (fun () -> log := 10 :: !log);
  Sim.Engine.at eng 20 (fun () -> log := 20 :: !log);
  Sim.Engine.run eng;
  Alcotest.(check (list int)) "fires in time order" [ 10; 20; 30 ] (List.rev !log)

let engine_same_time_fifo () =
  let eng = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.at eng 5 (fun () -> log := "a" :: !log);
  Sim.Engine.at eng 5 (fun () -> log := "b" :: !log);
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "fifo on ties" [ "a"; "b" ] (List.rev !log)

let engine_until () =
  let eng = Sim.Engine.create () in
  let fired = ref 0 in
  Sim.Engine.at eng 10 (fun () -> incr fired);
  Sim.Engine.at eng 100 (fun () -> incr fired);
  Sim.Engine.run ~until:50 eng;
  Alcotest.(check int) "only first event" 1 !fired;
  Alcotest.(check int) "clock at until" 50 (Sim.Engine.now eng)

let engine_nested_scheduling () =
  let eng = Sim.Engine.create () in
  let finish = ref 0 in
  Sim.Engine.at eng 10 (fun () -> Sim.Engine.after eng 5 (fun () -> finish := Sim.Engine.now eng));
  Sim.Engine.run eng;
  Alcotest.(check int) "nested after" 15 !finish

let engine_rejects_past () =
  let eng = Sim.Engine.create () in
  Sim.Engine.at eng 10 (fun () ->
      Alcotest.check_raises "past" (Invalid_argument "Engine.at: time in the past") (fun () ->
          Sim.Engine.at eng 5 ignore));
  Sim.Engine.run eng

(* -- net ------------------------------------------------------------------ *)

let mk_net ?queue_capacity () =
  let eng = Sim.Engine.create () in
  let topo = Topology.torus [| 4; 4 |] in
  let net = Sim.Net.create eng topo ?queue_capacity ~link_gbps:(U.gbps 10.0) ~hop_latency_ns:100 () in
  (eng, topo, net)

(* One-shot send through the handle API: intern the route, send, drop the
   caller's reference (the packet keeps its own). *)
let send_data net ~flow ~bytes verts =
  let r = Sim.Net.intern_route net verts in
  Sim.Net.send_data net ~flow ~seq:0 ~last:true ~bytes ~route:r;
  Sim.Net.release_route net r

let net_delivers_along_route () =
  let eng, _, net = mk_net () in
  let delivered = ref false in
  (* Packets are freed after the callback returns, so inspect in place. *)
  Sim.Net.on_deliver net (fun pkt ->
      delivered := true;
      Alcotest.(check int) "arrived at final hop" 2
        (Sim.Net.route_at net pkt (Sim.Net.hop net pkt)));
  (* route 0 -> 1 -> 2 on the first row of the 4x4 torus *)
  send_data net ~flow:1 ~bytes:1500 [| 0; 1; 2 |];
  Sim.Engine.run eng;
  Alcotest.(check bool) "delivered" true !delivered;
  (* 2 hops x (serialization 1200ns + latency 100ns) *)
  Alcotest.(check int) "latency model" 2600 (Sim.Engine.now eng)

let net_serialization_queuing () =
  let eng, _, net = mk_net () in
  let times = ref [] in
  Sim.Net.on_deliver net (fun _ -> times := Sim.Engine.now eng :: !times);
  for i = 0 to 2 do
    send_data net ~flow:i ~bytes:1500 [| 0; 1 |]
  done;
  Sim.Engine.run eng;
  (* Back-to-back packets serialize at 1200ns each; propagation overlaps. *)
  Alcotest.(check (list int)) "pipelined deliveries" [ 1300; 2500; 3700 ] (List.rev !times)

let net_tail_drop () =
  let eng, _, net = mk_net ~queue_capacity:3000 () in
  let drops = ref 0 in
  Sim.Net.on_drop net (fun _ -> incr drops);
  for i = 0 to 4 do
    send_data net ~flow:i ~bytes:1500 [| 0; 1 |]
  done;
  Sim.Engine.run eng;
  Alcotest.(check int) "drops counted" !drops (Sim.Net.drops net);
  Alcotest.(check bool) "some dropped" true (!drops >= 2)

let net_max_queue_tracked () =
  let eng, _, net = mk_net () in
  for i = 0 to 3 do
    send_data net ~flow:i ~bytes:1500 [| 0; 1 |]
  done;
  Sim.Engine.run eng;
  let q = Sim.Net.max_queue_bytes net in
  Alcotest.(check int) "peak queue = 4 packets" 6000 (Array.fold_left max 0 q)

let net_broadcast_reaches_all () =
  let eng, topo, net = mk_net () in
  let b = Broadcast.make topo in
  Sim.Net.set_broadcast net b;
  let received = Array.make 16 false in
  Sim.Net.on_bcast_deliver net (fun _ ~node -> received.(node) <- true);
  Sim.Net.send_bcast net ~root:0 ~tree:0 ~bcast_id:1 ~bytes:16 ();
  Sim.Engine.run eng;
  received.(0) <- true;
  Alcotest.(check bool) "every node got a copy" true (Array.for_all Fun.id received);
  let ctrl = U.to_float (Sim.Net.control_bytes_on_wire net) in
  Alcotest.(check bool) "control bytes counted" true (ctrl >= 16.0 *. 15.0)

let net_wire_counters () =
  let eng, _, net = mk_net () in
  send_data net ~flow:0 ~bytes:1000 [| 0; 1; 2 |];
  Sim.Engine.run eng;
  Alcotest.(check (float 1e-9)) "bytes x hops" 2000.0 (U.to_float (Sim.Net.data_bytes_on_wire net));
  Sim.Net.reset_wire_counters net;
  Alcotest.(check (float 1e-9)) "reset" 0.0 (U.to_float (Sim.Net.data_bytes_on_wire net))

let net_requires_fib_for_broadcast () =
  let _, _, net = mk_net () in
  Alcotest.check_raises "no FIB" (Invalid_argument "Net: broadcast FIB not configured")
    (fun () -> Sim.Net.send_bcast net ~root:0 ~tree:0 ~bcast_id:1 ~bytes:16 ())

let net_rejects_bad_route () =
  let _, _, net = mk_net () in
  Alcotest.check_raises "non-adjacent"
    (Invalid_argument "Net.send: route crosses non-adjacent vertices") (fun () ->
      send_data net ~flow:0 ~bytes:100 [| 0; 10 |]);
  Alcotest.check_raises "too short" (Invalid_argument "Net.send: route needs at least two vertices")
    (fun () -> send_data net ~flow:0 ~bytes:100 [| 0 |])

let net_steady_state_zero_alloc () =
  (* The zero-allocation contract, asserted rather than merely benchmarked:
     a steady-state send/ack loop — data 0->1, ack 1->0, next data on each
     ack — must not allocate minor words per packet once pools, queues and
     the serialization memo have warmed up. A regression to per-packet
     records or options shows up as tens of words per packet here. *)
  let eng, _, net = mk_net () in
  let fwd = Sim.Net.intern_route net [| 0; 1 |] in
  let rev = Sim.Net.intern_route net [| 1; 0 |] in
  let remaining = ref 0 in
  Sim.Net.on_deliver net (fun pkt ->
      if Sim.Net.kind net pkt = Sim.Net.code_data then
        Sim.Net.send_ack net ~flow:0 ~ackno:(Sim.Net.data_seq net pkt) ~bytes:64
          ~route:rev
      else if !remaining > 0 then begin
        decr remaining;
        Sim.Net.send_data net ~flow:0 ~seq:!remaining ~last:false ~bytes:1500
          ~route:fwd
      end);
  let run n =
    remaining := n;
    Sim.Net.send_data net ~flow:0 ~seq:0 ~last:false ~bytes:1500 ~route:fwd;
    Sim.Engine.run eng
  in
  run 200;
  let before = Gc.minor_words () in
  run 2000;
  let per_pkt = (Gc.minor_words () -. before) /. 4000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "minor words per packet ~ 0 (got %.3f)" per_pkt)
    true (per_pkt < 0.05);
  Sim.Net.release_route net fwd;
  Sim.Net.release_route net rev

(* Minor words per control hop of [round ()] once [round] has run once
   (pools, queues, trees and receive windows warmed up); [round] must
   produce [hops] hop arrivals. *)
let words_per_hop ~hops round =
  round ();
  let before = Gc.minor_words () in
  round ();
  (Gc.minor_words () -. before) /. float_of_int hops

(* One broadcast (or digest) per (root, tree) on a 4x4x4 torus: every
   spanning tree has 63 edges. *)
let flood_hops = 64 * 4 * 63

let net_broadcast_flood_zero_alloc () =
  (* The control-plane counterpart of the data-path pin above: forwarding
     a broadcast copy is a loop over the tree's flat FIB slice — no hash
     probe, no option, no closure per hop. *)
  let topo = Topology.torus [| 4; 4; 4 |] in
  let eng = Sim.Engine.create () in
  let net = Sim.Net.create eng topo ~link_gbps:(U.gbps 100.0) ~hop_latency_ns:100 () in
  Sim.Net.set_broadcast net (Broadcast.make topo);
  let arrivals = ref 0 in
  Sim.Net.on_bcast_deliver net (fun _ ~node:_ -> incr arrivals);
  let per_hop =
    words_per_hop ~hops:flood_hops (fun () ->
        for root = 0 to 63 do
          for tree = 0 to 3 do
            Sim.Net.send_bcast net ~root ~tree ~bcast_id:root ~bytes:Wire.broadcast_size ()
          done
        done;
        Sim.Engine.run eng)
  in
  Alcotest.(check int) "every copy arrived" (2 * flood_hops) !arrivals;
  Alcotest.(check bool)
    (Printf.sprintf "minor words per broadcast hop ~ 0 (got %.3f)" per_hop)
    true (per_hop < 0.05)

let r2c2_digest_round_zero_alloc () =
  (* The reliable receive path: a digest arriving at a node looks up its
     (root, tree) receive window by array index. Flows first run to
     completion so windows hold real sequence state; each measured round
     then floods one digest per (root, tree), every one already covered. *)
  let topo = Topology.torus [| 4; 4; 4 |] in
  let cfg = { Sim.R2c2_sim.default_config with reliable_bcast = true } in
  let t = Sim.R2c2_sim.create cfg topo in
  for i = 0 to 63 do
    ignore (Sim.R2c2_sim.start_flow t ~src:i ~dst:((i + 33) mod 64) ~size:20_000)
  done;
  Sim.R2c2_sim.run_engine t;
  Alcotest.(check bool) "converged before the rounds" true (Sim.R2c2_sim.control_converged t);
  let net = Sim.R2c2_sim.net t in
  let hops0 = Sim.Net.ctrl_hops net in
  let per_hop =
    words_per_hop ~hops:flood_hops (fun () ->
        for root = 0 to 63 do
          for tree = 0 to 3 do
            Sim.Net.send_digest_tree net ~root ~tree ~epoch:0 ~last_seq:(-1) ~hash:0
              ~bytes:Wire.digest_size
          done
        done;
        Sim.R2c2_sim.run_engine t)
  in
  Alcotest.(check int) "two rounds of digest hops" (2 * flood_hops)
    (Sim.Net.ctrl_hops net - hops0);
  Alcotest.(check bool) "still converged" true (Sim.R2c2_sim.control_converged t);
  Alcotest.(check bool)
    (Printf.sprintf "minor words per digest hop ~ 0 (got %.3f)" per_hop)
    true (per_hop < 0.05)

let r2c2_per_node_digest_round_zero_alloc () =
  (* Per_node adds the state-hash check to the digest path: a node that is
     sequence-caught-up with the digest's origin compares the origin's
     live-flow set hash with the one it keeps for its view of that
     origin's flows. Sorting the view to recompute that hash on each
     arrival cost 2,040 words per digest hop here, before the hash was
     kept up to date (now 0.003: about a dozen words per tick). Every flow
     stays live (a tiny demand paces it to one packet per 12 s) and rates
     are never recomputed, so each digest loop tick is the whole of the
     traffic: one digest per origin, on the one tree that carried its
     start event. *)
  let topo = Topology.torus [| 4; 4; 4 |] in
  let interval = 20_000 in
  let cfg =
    {
      Sim.R2c2_sim.default_config with
      control = Sim.R2c2_sim.Per_node;
      reliable_bcast = true;
      digest_interval_ns = interval;
      recompute_interval_ns = 1_000_000_000;
    }
  in
  let t = Sim.R2c2_sim.create cfg topo in
  for i = 0 to 63 do
    ignore
      (Sim.R2c2_sim.start_flow t ~demand_gbps:(U.gbps 1e-6) ~src:i ~dst:((i + 33) mod 64)
         ~size:1_000_000)
  done;
  (* Midway between two ticks, past several of them. *)
  let until = ref ((5 * interval) + (interval / 2)) in
  Sim.R2c2_sim.run_engine ~until_ns:!until t;
  Alcotest.(check bool) "converged before the rounds" true (Sim.R2c2_sim.control_converged t);
  Alcotest.(check int) "every flow in the view" 64
    (List.length (Sim.R2c2_sim.node_view_ids t ~node:0));
  let net = Sim.R2c2_sim.net t in
  let hops0 = Sim.Net.ctrl_hops net in
  let round_hops = 64 * 63 in
  let per_hop =
    words_per_hop ~hops:round_hops (fun () ->
        until := !until + interval;
        Sim.R2c2_sim.run_engine ~until_ns:!until t)
  in
  Alcotest.(check int) "two rounds of digest hops" (2 * round_hops)
    (Sim.Net.ctrl_hops net - hops0);
  Alcotest.(check bool) "still converged" true (Sim.R2c2_sim.control_converged t);
  Alcotest.(check int) "no sync requested" 0 (Sim.R2c2_sim.results t).Sim.R2c2_sim.sync_requests;
  Alcotest.(check bool)
    (Printf.sprintf "minor words per Per_node digest hop ~ 0 (got %.3f)" per_hop)
    true (per_hop < 0.05)

let r2c2_reliable_event_hop_zero_alloc () =
  (* An accepted in-order event passes its (root, tree) receive window and
     is applied as the bare event id the packet carries: no delivery list,
     no payload tuple, no probe of the out-of-order buffers. Each round
     floods one sequenced broadcast per (root, tree), carrying the next
     sequence number of every window it reaches. *)
  let topo = Topology.torus [| 4; 4; 4 |] in
  let cfg = { Sim.R2c2_sim.default_config with reliable_bcast = true } in
  let t = Sim.R2c2_sim.create cfg topo in
  let net = Sim.R2c2_sim.net t in
  let seq = ref 0 in
  let per_hop =
    words_per_hop ~hops:flood_hops (fun () ->
        for root = 0 to 63 do
          for tree = 0 to 3 do
            Sim.Net.send_bcast net ~seq:!seq ~root ~tree ~bcast_id:(-1)
              ~bytes:Wire.seq_broadcast_size ()
          done
        done;
        incr seq;
        Sim.R2c2_sim.run_engine t)
  in
  Alcotest.(check int) "two rounds of event hops" (2 * flood_hops) (Sim.Net.ctrl_hops net);
  let r = Sim.R2c2_sim.results t in
  Alcotest.(check (pair int int)) "every copy in order: no duplicate, no gap" (0, 0)
    (r.Sim.R2c2_sim.dup_events_absorbed, r.Sim.R2c2_sim.nacks_sent);
  Alcotest.(check bool)
    (Printf.sprintf "minor words per reliable event hop ~ 0 (got %.3f)" per_hop)
    true (per_hop < 0.05)

(* -- metrics --------------------------------------------------------------- *)

let metrics_flow_lifecycle () =
  let m = Sim.Metrics.create () in
  Sim.Metrics.add_flow m ~id:0 ~src:1 ~dst:2 ~size:3000 ~arrival_ns:100;
  Alcotest.(check bool) "incomplete" false (Sim.Metrics.complete m (Sim.Metrics.find m 0));
  Alcotest.(check bool) "first not final" false
    (Sim.Metrics.record_delivery m ~id:0 ~seq:0 ~payload:1500 ~now:200);
  Alcotest.(check bool) "second completes" true
    (Sim.Metrics.record_delivery m ~id:0 ~seq:1 ~payload:1500 ~now:400);
  Alcotest.(check int) "fct" 300 (Sim.Metrics.fct_ns (Sim.Metrics.find m 0));
  Alcotest.(check int) "completed count" 1 (Sim.Metrics.completed_count m)

let metrics_out_of_order_and_dups () =
  let m = Sim.Metrics.create () in
  Sim.Metrics.add_flow m ~id:0 ~src:1 ~dst:2 ~size:4500 ~arrival_ns:0;
  ignore (Sim.Metrics.record_delivery m ~id:0 ~seq:2 ~payload:1500 ~now:10);
  ignore (Sim.Metrics.record_delivery m ~id:0 ~seq:1 ~payload:1500 ~now:20);
  (* duplicate of seq 2 must not double-count *)
  ignore (Sim.Metrics.record_delivery m ~id:0 ~seq:2 ~payload:1500 ~now:25);
  Alcotest.(check bool) "completes on seq 0" true
    (Sim.Metrics.record_delivery m ~id:0 ~seq:0 ~payload:1500 ~now:30);
  let f = Sim.Metrics.find m 0 in
  Alcotest.(check int) "reorder buffer peaked at 2" 2 f.Sim.Metrics.reorder_max;
  Alcotest.(check int) "all bytes" 4500 f.Sim.Metrics.delivered

(* -- r2c2 transport --------------------------------------------------------- *)

let default_specs topo rng n tau =
  Workload.Flowgen.poisson_pareto topo rng ~flows:n ~mean_interarrival_ns:tau

let r2c2_delivers_everything () =
  let topo = Topology.torus [| 4; 4 |] in
  let specs = default_specs topo (Util.Rng.create 3) 150 1_000.0 in
  let res = Sim.R2c2_sim.run Sim.R2c2_sim.default_config topo specs in
  Alcotest.(check int) "all flows complete" 150 (Sim.Metrics.completed_count res.Sim.R2c2_sim.metrics);
  Alcotest.(check int) "no drops with unbounded queues" 0 res.Sim.R2c2_sim.drops;
  List.iteri
    (fun i (s : Workload.Flowgen.spec) ->
      let f = Sim.Metrics.find res.Sim.R2c2_sim.metrics i in
      Alcotest.(check int) "every byte delivered" s.size f.Sim.Metrics.delivered)
    specs

let r2c2_single_flow_line_rate () =
  let topo = Topology.torus [| 4; 4 |] in
  let specs =
    [ { Workload.Flowgen.arrival_ns = 0; src = 0; dst = 1; size = 1_000_000; weight = 1; priority = 0 } ]
  in
  let res = Sim.R2c2_sim.run Sim.R2c2_sim.default_config topo specs in
  let f = Sim.Metrics.find res.Sim.R2c2_sim.metrics 0 in
  let gbps = tput f in
  (* Line rate 10G minus header overhead and pipeline latency. *)
  Alcotest.(check bool) (Printf.sprintf "near line rate (got %.2f)" gbps) true (gbps > 8.5)

let r2c2_clean_epochs_skipped () =
  (* One long flow spans many recompute intervals but generates exactly one
     rate-changing event (its start broadcast completing); with dirty-flow
     tracking every later epoch is clean and must be skipped, where the
     full-rebuild path recomputed on all of them. *)
  let topo = Topology.torus [| 4; 4 |] in
  let specs =
    [ { Workload.Flowgen.arrival_ns = 0; src = 0; dst = 3; size = 4_000_000; weight = 1; priority = 0 } ]
  in
  let cfg = { Sim.R2c2_sim.default_config with recompute_interval_ns = 100_000 } in
  let res = Sim.R2c2_sim.run cfg topo specs in
  let f = Sim.Metrics.find res.Sim.R2c2_sim.metrics 0 in
  Alcotest.(check int) "flow completes" 4_000_000 f.Sim.Metrics.delivered;
  (* ~30+ epochs elapse; only the dirty one after visibility computes. *)
  Alcotest.(check bool)
    (Printf.sprintf "steady-state epochs skipped (%d recomputes)" res.Sim.R2c2_sim.recomputes)
    true
    (res.Sim.R2c2_sim.recomputes >= 1 && res.Sim.R2c2_sim.recomputes <= 3);
  Alcotest.(check bool) "rate still applied"
    true
    (tput f > 5.0)

let r2c2_deterministic () =
  let topo = Topology.torus [| 4; 4 |] in
  let specs = default_specs topo (Util.Rng.create 5) 80 1_000.0 in
  let r1 = Sim.R2c2_sim.run Sim.R2c2_sim.default_config topo specs in
  let r2 = Sim.R2c2_sim.run Sim.R2c2_sim.default_config topo specs in
  List.iteri
    (fun i _ ->
      Alcotest.(check int) "same fct"
        (Sim.Metrics.fct_ns (Sim.Metrics.find r1.Sim.R2c2_sim.metrics i))
        (Sim.Metrics.fct_ns (Sim.Metrics.find r2.Sim.R2c2_sim.metrics i)))
    specs

(* Byte-exact metrics snapshot of a seeded 4x4-torus run: per-flow records
   in [Metrics.all] order, the goodput time series, every sampled rate
   update and all the accounting counters. Parameterized over the engine
   backend (for the heap-vs-calendar differential test) and an optional
   control-plane chaos scenario. *)
let metrics_snapshot ?(backend = Sim.Engine.Calendar) ?(chaos = false) () =
  let topo = Topology.torus [| 4; 4 |] in
  let specs = default_specs topo (Util.Rng.create 11) 60 1_000.0 in
  let cfg =
    { Sim.R2c2_sim.default_config with
      recompute_interval_ns = 100_000;
      reselect_interval_ns = Some 200_000;
      engine_backend = backend;
    }
  in
  let cfg =
    if chaos then
      { cfg with
        Sim.R2c2_sim.control_loss = U.fraction 0.2;
        control_reorder = U.fraction 0.1;
        control_dup = U.fraction 0.05;
      }
    else cfg
  in
  let t = Sim.R2c2_sim.create cfg topo in
  Sim.Metrics.set_goodput_bucket (Sim.R2c2_sim.metrics t) ~bucket_ns:10_000;
  List.iter
    (fun (s : Workload.Flowgen.spec) ->
      Sim.Engine.at (Sim.R2c2_sim.engine t) s.arrival_ns (fun () ->
          ignore
            (Sim.R2c2_sim.start_flow ~weight:s.weight ~priority:s.priority t ~src:s.src
               ~dst:s.dst ~size:s.size)))
    specs;
  Sim.R2c2_sim.run_engine t;
  let r = Sim.R2c2_sim.results t in
  let open Sim.R2c2_sim in
  let buf = Buffer.create 8192 in
  List.iter
    (fun (f : Sim.Metrics.flow) ->
      Buffer.add_string buf
        (Printf.sprintf "flow %d %d->%d size=%d t0=%d tx=%d del=%d fin=%d ro=%d\n" f.id f.src
           f.dst f.size f.arrival_ns f.start_tx_ns f.delivered f.finish_ns f.reorder_max))
    (Sim.Metrics.all r.metrics);
  Array.iter
    (fun (ns, b) -> Buffer.add_string buf (Printf.sprintf "goodput %d %d\n" ns b))
    (Sim.Metrics.goodput_series r.metrics);
  List.iter
    (fun (ns, gbps) ->
      Buffer.add_string buf (Printf.sprintf "rate %d %.17g\n" ns (U.to_float gbps)))
    r.rate_updates;
  Buffer.add_string buf
    (Printf.sprintf "drops=%d recomputes=%d reselections=%d rerouted=%d inj=%d del=%d\n"
       r.drops r.recomputes r.reselections r.flows_rerouted r.injected_payload
       r.delivered_payload);
  (* Chaos-only so the clean snapshot stays byte-compatible with the
     golden pin below. *)
  if chaos then
    Buffer.add_string buf
      (Printf.sprintf "lost=%d lostB=%d reord=%d dup=%d\n" r.ctrl_lost r.ctrl_lost_bytes
         r.ctrl_reordered r.ctrl_dupped);
  Buffer.contents buf

let r2c2_metrics_snapshot_deterministic () =
  (* Stronger than [r2c2_deterministic]: two identically-seeded runs of a
     4x4 torus must produce *byte-identical* metric snapshots. Guards the
     Util.Tbl sorted-iteration conversion: any hash-order dependence left
     in the sim (or reintroduced later) shows up here as a diff. *)
  let s1 = metrics_snapshot () and s2 = metrics_snapshot () in
  Alcotest.(check bool) "snapshot is non-trivial" true (String.length s1 > 1000);
  Alcotest.(check string) "identical snapshots" s1 s2;
  (* Golden pin, captured immediately *before* the Util.Units sweep: the
     phantom wrappers are all [%identity] and the combinators are the
     literal raw formulas, so the typed stack must reproduce the unwrapped
     trajectory to the byte — not merely be self-consistent. *)
  Alcotest.(check int) "pre-sweep snapshot length" 4804 (String.length s1);
  Alcotest.(check string) "pre-sweep snapshot digest" "cdb08d68b4acc8b58fb70e9159ebabf6"
    (Digest.to_hex (Digest.string s1))

let r2c2_backend_differential () =
  (* The calendar queue must be observationally identical to the binary
     heap it replaced: same-instant events fire in the same FIFO order, so
     a full 4x4-torus run — and one with control-plane chaos layered on
     top (loss, reordering, duplication all active) — must produce
     byte-identical metric snapshots under both engine backends. *)
  Alcotest.(check string) "clean run: heap = calendar"
    (metrics_snapshot ~backend:Sim.Engine.Binary_heap ())
    (metrics_snapshot ~backend:Sim.Engine.Calendar ());
  Alcotest.(check string) "chaos run: heap = calendar"
    (metrics_snapshot ~backend:Sim.Engine.Binary_heap ~chaos:true ())
    (metrics_snapshot ~backend:Sim.Engine.Calendar ~chaos:true ())

let r2c2_rate_limited_after_epoch () =
  (* Two long flows from distinct sources to the same destination must
     converge to ~half the destination capacity each after recomputation. *)
  let topo = Topology.torus [| 4; 4 |] in
  let specs =
    [
      { Workload.Flowgen.arrival_ns = 0; src = 1; dst = 0; size = 4_000_000; weight = 1; priority = 0 };
      { Workload.Flowgen.arrival_ns = 0; src = 2; dst = 0; size = 4_000_000; weight = 1; priority = 0 };
    ]
  in
  let cfg = { Sim.R2c2_sim.default_config with recompute_interval_ns = 100_000 } in
  let res = Sim.R2c2_sim.run cfg topo specs in
  Alcotest.(check bool) "recomputed at least once" true (res.Sim.R2c2_sim.recomputes >= 1);
  let t0 = tput (Sim.Metrics.find res.Sim.R2c2_sim.metrics 0) in
  let t1 = tput (Sim.Metrics.find res.Sim.R2c2_sim.metrics 1) in
  (* Destination node 0 has 4 incoming links; two spraying flows share
     paths towards it. Fairness: roughly equal rates. *)
  Alcotest.(check bool) (Printf.sprintf "fair split (%.2f vs %.2f)" t0 t1) true
    (abs_float (t0 -. t1) /. Float.max t0 t1 < 0.25)

let r2c2_broadcast_overhead_counted () =
  let topo = Topology.torus [| 4; 4 |] in
  let specs = default_specs topo (Util.Rng.create 7) 50 1_000.0 in
  let res = Sim.R2c2_sim.run Sim.R2c2_sim.default_config topo specs in
  (* Every flow start and finish is a real broadcast: 2 * 15 tree edges *
     16 bytes, all of which cross exactly one link each. *)
  Alcotest.(check (float 1.0)) "control wire bytes" (float_of_int (50 * 2 * 15 * 16))
    (U.to_float res.Sim.R2c2_sim.control_wire_bytes)

let r2c2_latency_model_broadcast () =
  let topo = Topology.torus [| 4; 4 |] in
  let specs = default_specs topo (Util.Rng.create 9) 60 1_000.0 in
  let cfg = { Sim.R2c2_sim.default_config with real_broadcast = false } in
  let res = Sim.R2c2_sim.run cfg topo specs in
  Alcotest.(check int) "all complete" 60 (Sim.Metrics.completed_count res.Sim.R2c2_sim.metrics);
  Alcotest.(check (float 1e-9)) "no control bytes on wire" 0.0
    (U.to_float res.Sim.R2c2_sim.control_wire_bytes)

let r2c2_respects_weights () =
  let topo = Topology.torus [| 4; 4 |] in
  let specs =
    [
      { Workload.Flowgen.arrival_ns = 0; src = 1; dst = 0; size = 6_000_000; weight = 3; priority = 0 };
      { Workload.Flowgen.arrival_ns = 0; src = 2; dst = 0; size = 2_000_000; weight = 1; priority = 0 };
    ]
  in
  let cfg = { Sim.R2c2_sim.default_config with recompute_interval_ns = 50_000 } in
  let res = Sim.R2c2_sim.run cfg topo specs in
  let t0 = tput (Sim.Metrics.find res.Sim.R2c2_sim.metrics 0) in
  let t1 = tput (Sim.Metrics.find res.Sim.R2c2_sim.metrics 1) in
  Alcotest.(check bool) (Printf.sprintf "weighted flow faster (%.2f vs %.2f)" t0 t1) true (t0 > t1)

let r2c2_per_node_control () =
  (* The paper's literal decentralized design must complete everything and
     land close to the global-epoch approximation. *)
  let topo = Topology.torus [| 4; 4 |] in
  let specs = default_specs topo (Util.Rng.create 23) 150 1_000.0 in
  let global = Sim.R2c2_sim.run Sim.R2c2_sim.default_config topo specs in
  let per_node =
    Sim.R2c2_sim.run
      { Sim.R2c2_sim.default_config with control = Sim.R2c2_sim.Per_node }
      topo specs
  in
  Alcotest.(check int) "all complete" 150
    (Sim.Metrics.completed_count per_node.Sim.R2c2_sim.metrics);
  let m_g = Util.Stats.mean (Sim.Metrics.fcts_us global.Sim.R2c2_sim.metrics) in
  let m_p = Util.Stats.mean (Sim.Metrics.fcts_us per_node.Sim.R2c2_sim.metrics) in
  Alcotest.(check bool)
    (Printf.sprintf "mean FCT within 30%% (%.1f vs %.1f us)" m_g m_p)
    true
    (abs_float (m_g -. m_p) /. Float.max m_g m_p < 0.3)

let r2c2_per_node_needs_real_broadcast () =
  let topo = Topology.torus [| 4; 4 |] in
  let cfg =
    {
      Sim.R2c2_sim.default_config with
      control = Sim.R2c2_sim.Per_node;
      real_broadcast = false;
    }
  in
  Alcotest.check_raises "rejected"
    (Invalid_argument "R2c2_sim: Per_node control builds its views from real broadcasts")
    (fun () -> ignore (Sim.R2c2_sim.run cfg topo []))

(* Per_node senders allocate with [Waterfill.allocate], which has no class
   reserve: a non-zero [class_reserve] would silently do nothing there. *)
let r2c2_per_node_rejects_class_reserve () =
  let cfg =
    {
      Sim.R2c2_sim.default_config with
      control = Sim.R2c2_sim.Per_node;
      class_reserve = Util.Units.fraction 0.2;
    }
  in
  Alcotest.check_raises "rejected"
    (Invalid_argument "R2c2_sim: Per_node control does not apply class_reserve")
    (fun () -> ignore (Sim.R2c2_sim.create cfg (Topology.torus [| 3; 3 |])))

(* A non-positive period would reschedule its loop at the same instant
   forever, so simulated time never advances; [create] refuses it. *)
let rejects_period name cfg =
  Alcotest.check_raises name (Invalid_argument ("R2c2_sim: " ^ name ^ " must be positive"))
    (fun () -> ignore (Sim.R2c2_sim.create cfg (Topology.torus [| 3; 3; 3 |])))

let r2c2_rejects_zero_recompute_interval () =
  rejects_period "recompute_interval_ns"
    { Sim.R2c2_sim.default_config with recompute_interval_ns = 0 }

let r2c2_rejects_zero_reselect_interval () =
  rejects_period "reselect_interval_ns"
    { Sim.R2c2_sim.default_config with reselect_interval_ns = Some 0 }

let r2c2_rejects_zero_digest_interval () =
  let cfg = { Sim.R2c2_sim.default_config with digest_interval_ns = 0 } in
  rejects_period "digest_interval_ns" { cfg with reliable_bcast = true };
  (* Without reliable broadcast no digest loop runs, so the value is inert. *)
  ignore (Sim.R2c2_sim.create cfg (Topology.torus [| 3; 3; 3 |]))

let r2c2_per_node_long_flows_fair () =
  (* Two long flows from different senders: each sender computes its own
     rate from broadcasts and they still converge to a fair split. *)
  let topo = Topology.torus [| 4; 4 |] in
  let specs =
    [
      { Workload.Flowgen.arrival_ns = 0; src = 1; dst = 0; size = 4_000_000; weight = 1; priority = 0 };
      { Workload.Flowgen.arrival_ns = 0; src = 2; dst = 0; size = 4_000_000; weight = 1; priority = 0 };
    ]
  in
  let cfg =
    {
      Sim.R2c2_sim.default_config with
      control = Sim.R2c2_sim.Per_node;
      recompute_interval_ns = 100_000;
    }
  in
  let res = Sim.R2c2_sim.run cfg topo specs in
  let t0 = tput (Sim.Metrics.find res.Sim.R2c2_sim.metrics 0) in
  let t1 = tput (Sim.Metrics.find res.Sim.R2c2_sim.metrics 1) in
  Alcotest.(check bool) (Printf.sprintf "fair (%.2f vs %.2f)" t0 t1) true
    (abs_float (t0 -. t1) /. Float.max t0 t1 < 0.25)

let r2c2_host_limited_flow () =
  (* A demand-capped flow frees its unused share for the competing flow
     (SS3.3.2 host-limited flows). *)
  let topo = Topology.torus [| 4; 4 |] in
  let specs =
    [
      { Workload.Flowgen.arrival_ns = 0; src = 1; dst = 0; size = 1_000_000; weight = 1; priority = 0 };
      { Workload.Flowgen.arrival_ns = 0; src = 2; dst = 0; size = 4_000_000; weight = 1; priority = 0 };
    ]
  in
  let demand_of idx _ = if idx = 0 then Some (U.gbps 1.0) else None in
  let cfg = { Sim.R2c2_sim.default_config with recompute_interval_ns = 100_000 } in
  let res = Sim.R2c2_sim.run ~demand_of cfg topo specs in
  Alcotest.(check int) "both complete" 2 (Sim.Metrics.completed_count res.Sim.R2c2_sim.metrics);
  let t0 = tput (Sim.Metrics.find res.Sim.R2c2_sim.metrics 0) in
  let t1 = tput (Sim.Metrics.find res.Sim.R2c2_sim.metrics 1) in
  Alcotest.(check bool) (Printf.sprintf "capped near 1 Gbps (got %.2f)" t0) true (t0 < 1.3);
  Alcotest.(check bool) (Printf.sprintf "other soaks the slack (got %.2f)" t1) true (t1 > 5.0)

let r2c2_live_reselection () =
  (* SS3.4 closed loop inside the simulator: long flows get re-assigned a
     routing protocol mid-run and everything still completes. *)
  let topo = Topology.torus [| 4; 4; 4 |] in
  let rng = Util.Rng.create 29 in
  let specs =
    List.map
      (fun (s : Workload.Flowgen.spec) -> { s with Workload.Flowgen.size = 3_000_000 })
      (Workload.Flowgen.permutation_long_flows topo rng ~load:(U.fraction 0.5))
  in
  let cfg =
    {
      Sim.R2c2_sim.default_config with
      recompute_interval_ns = 200_000;
      reselect_interval_ns = Some 400_000;
    }
  in
  let res = Sim.R2c2_sim.run cfg topo specs in
  Alcotest.(check int) "all complete" (List.length specs)
    (Sim.Metrics.completed_count res.Sim.R2c2_sim.metrics);
  Alcotest.(check bool) "reselections ran" true (res.Sim.R2c2_sim.reselections >= 1)

let r2c2_reselection_not_worse () =
  (* With reselection on, aggregate completion time of a long-flow batch
     should not regress materially. *)
  let topo = Topology.torus [| 4; 4; 4 |] in
  let rng = Util.Rng.create 31 in
  let specs =
    List.map
      (fun (s : Workload.Flowgen.spec) -> { s with Workload.Flowgen.size = 3_000_000 })
      (Workload.Flowgen.permutation_long_flows topo rng ~load:(U.fraction 0.25))
  in
  let base = Sim.R2c2_sim.run Sim.R2c2_sim.default_config topo specs in
  let cfg = { Sim.R2c2_sim.default_config with reselect_interval_ns = Some 300_000 } in
  let sel = Sim.R2c2_sim.run cfg topo specs in
  let mean r = Util.Stats.mean (Sim.Metrics.fcts_us r.Sim.R2c2_sim.metrics) in
  Alcotest.(check bool)
    (Printf.sprintf "no big regression (%.0f vs %.0f us)" (mean base) (mean sel))
    true
    (mean sel <= mean base *. 1.15)

(* -- dynamic handle API -------------------------------------------------- *)

let dynamic_chained_flows () =
  (* A completion callback starting a response flow mid-simulation: the
     request/response pattern of an RPC. *)
  let topo = Topology.torus [| 4; 4 |] in
  let sim = Sim.R2c2_sim.create Sim.R2c2_sim.default_config topo in
  let eng = Sim.R2c2_sim.engine sim in
  let response_done = ref (-1) in
  Sim.Engine.at eng 0 (fun () ->
      ignore
        (Sim.R2c2_sim.start_flow sim ~src:0 ~dst:5 ~size:2_000 ~on_complete:(fun _ ->
             ignore
               (Sim.R2c2_sim.start_flow sim ~src:5 ~dst:0 ~size:10_000
                  ~on_complete:(fun _ -> response_done := Sim.Engine.now eng)))));
  Sim.R2c2_sim.run_engine sim;
  Alcotest.(check bool) "response completed" true (!response_done > 0);
  let res = Sim.R2c2_sim.results sim in
  Alcotest.(check int) "two flows total" 2
    (Sim.Metrics.completed_count res.Sim.R2c2_sim.metrics)

let dynamic_on_complete_gets_id () =
  let topo = Topology.torus [| 4; 4 |] in
  let sim = Sim.R2c2_sim.create Sim.R2c2_sim.default_config topo in
  let seen = ref [] in
  let eng = Sim.R2c2_sim.engine sim in
  Sim.Engine.at eng 0 (fun () ->
      for i = 0 to 2 do
        let id =
          Sim.R2c2_sim.start_flow sim ~src:i ~dst:(i + 4) ~size:5_000
            ~on_complete:(fun id -> seen := id :: !seen)
        in
        Alcotest.(check int) "sequential ids" i id
      done);
  Sim.R2c2_sim.run_engine sim;
  Alcotest.(check (list int)) "all callbacks fired" [ 0; 1; 2 ] (List.sort compare !seen)

let dynamic_run_engine_resumable () =
  (* run_engine can be called repeatedly as more work is scripted. *)
  let topo = Topology.torus [| 4; 4 |] in
  let sim = Sim.R2c2_sim.create Sim.R2c2_sim.default_config topo in
  let eng = Sim.R2c2_sim.engine sim in
  Sim.Engine.at eng 0 (fun () -> ignore (Sim.R2c2_sim.start_flow sim ~src:0 ~dst:1 ~size:3_000));
  Sim.R2c2_sim.run_engine sim;
  let first = Sim.Metrics.completed_count (Sim.R2c2_sim.metrics sim) in
  Sim.Engine.at eng (Sim.Engine.now eng) (fun () ->
      ignore (Sim.R2c2_sim.start_flow sim ~src:2 ~dst:3 ~size:3_000));
  Sim.R2c2_sim.run_engine sim;
  Alcotest.(check int) "first round" 1 first;
  Alcotest.(check int) "second round" 2 (Sim.Metrics.completed_count (Sim.R2c2_sim.metrics sim))

let dynamic_validates_inputs () =
  let topo = Topology.torus [| 4; 4 |] in
  let sim = Sim.R2c2_sim.create Sim.R2c2_sim.default_config topo in
  Alcotest.check_raises "self flow" (Invalid_argument "R2c2_sim: flow with src = dst")
    (fun () -> ignore (Sim.R2c2_sim.start_flow sim ~src:1 ~dst:1 ~size:100));
  Alcotest.check_raises "empty flow" (Invalid_argument "R2c2_sim: non-positive flow size")
    (fun () -> ignore (Sim.R2c2_sim.start_flow sim ~src:1 ~dst:2 ~size:0))

(* -- tcp transport ---------------------------------------------------------- *)

let tcp_delivers_everything () =
  let topo = Topology.torus [| 4; 4 |] in
  let specs = default_specs topo (Util.Rng.create 11) 150 1_000.0 in
  let res = Sim.Tcp_sim.run Sim.Tcp_sim.default_config topo specs in
  Alcotest.(check int) "all flows complete despite drops" 150
    (Sim.Metrics.completed_count res.Sim.Tcp_sim.metrics);
  List.iteri
    (fun i (s : Workload.Flowgen.spec) ->
      let f = Sim.Metrics.find res.Sim.Tcp_sim.metrics i in
      Alcotest.(check int) "every byte delivered" s.size f.Sim.Metrics.delivered)
    specs

let tcp_recovers_from_heavy_loss () =
  (* Tiny queues force drops; TCP must still finish. *)
  let topo = Topology.torus [| 4; 4 |] in
  let specs = default_specs topo (Util.Rng.create 13) 60 200.0 in
  let cfg = { Sim.Tcp_sim.default_config with queue_capacity = 6_000 } in
  let res = Sim.Tcp_sim.run cfg topo specs in
  Alcotest.(check int) "all complete" 60 (Sim.Metrics.completed_count res.Sim.Tcp_sim.metrics);
  Alcotest.(check bool) "loss actually happened" true (res.Sim.Tcp_sim.drops > 0);
  Alcotest.(check bool) "retransmissions happened" true (res.Sim.Tcp_sim.retransmits > 0)

let tcp_single_path_per_flow () =
  (* With ECMP every packet of a flow follows one path: absent drops the
     receiver never buffers out of order. *)
  let topo = Topology.torus [| 4; 4 |] in
  let specs =
    [ { Workload.Flowgen.arrival_ns = 0; src = 0; dst = 5; size = 500_000; weight = 1; priority = 0 } ]
  in
  let cfg = { Sim.Tcp_sim.default_config with queue_capacity = max_int } in
  let res = Sim.Tcp_sim.run cfg topo specs in
  Alcotest.(check int) "no drops" 0 res.Sim.Tcp_sim.drops;
  let f = Sim.Metrics.find res.Sim.Tcp_sim.metrics 0 in
  Alcotest.(check int) "no reordering on a single path" 0 f.Sim.Metrics.reorder_max

(* -- pfq transport ----------------------------------------------------------- *)

let pfq_completes_all () =
  let topo = Topology.torus [| 4; 4 |] in
  let specs = default_specs topo (Util.Rng.create 17) 150 1_000.0 in
  let results = Sim.Pfq_sim.run Sim.Pfq_sim.default_config topo specs in
  Alcotest.(check int) "all flows complete" 150 (List.length results);
  List.iter
    (fun (r : Sim.Pfq_sim.flow_result) ->
      Alcotest.(check bool) "positive fct" true (r.fct_ns > 0);
      Alcotest.(check bool) "positive throughput" true ((r.throughput_gbps : U.gbps :> float) > 0.0))
    results

let pfq_single_flow_multipath_beats_line_rate () =
  (* The ideal baseline can use several paths at once: a lone flow gets
     more than one link's capacity. *)
  let topo = Topology.torus [| 4; 4 |] in
  let specs =
    [ { Workload.Flowgen.arrival_ns = 0; src = 0; dst = 5; size = 10_000_000; weight = 1; priority = 0 } ]
  in
  let results = Sim.Pfq_sim.run Sim.Pfq_sim.default_config topo specs in
  match results with
  | [ r ] ->
      let t = U.to_float r.throughput_gbps in
      Alcotest.(check bool) (Printf.sprintf "multipath > 10G (got %.1f)" t) true (t > 10.0)
  | _ -> Alcotest.fail "expected one result"

let pfq_mean_fct_not_worse_than_r2c2 () =
  (* PFQ is the idealized upper bound: on the same workload its mean FCT
     must not exceed R2C2's by any meaningful margin. *)
  let topo = Topology.torus [| 4; 4 |] in
  let specs = default_specs topo (Util.Rng.create 19) 200 1_000.0 in
  let pfq = Sim.Pfq_sim.run Sim.Pfq_sim.default_config topo specs in
  let r2c2 = Sim.R2c2_sim.run Sim.R2c2_sim.default_config topo specs in
  let pfq_mean =
    Util.Stats.mean
      (Array.of_list
         (List.map (fun (r : Sim.Pfq_sim.flow_result) -> float_of_int r.fct_ns /. 1000.0) pfq))
  in
  let r2c2_mean = Util.Stats.mean (Sim.Metrics.fcts_us r2c2.Sim.R2c2_sim.metrics) in
  Alcotest.(check bool)
    (Printf.sprintf "pfq (%.1f us) <= r2c2 (%.1f us) * 1.1" pfq_mean r2c2_mean)
    true
    (pfq_mean <= r2c2_mean *. 1.1)

let pfq_identical_flows_fair () =
  (* Symmetric sources: (2,0) and (0,2) are both two hops from (0,0) with
     congruent shortest-path sets, so path-level max-min must treat them
     equally. *)
  let topo = Topology.torus [| 4; 4 |] in
  let mk src = { Workload.Flowgen.arrival_ns = 0; src; dst = 0; size = 10_000_000; weight = 1; priority = 0 } in
  let results = Sim.Pfq_sim.run Sim.Pfq_sim.default_config topo [ mk 2; mk 8 ] in
  match results with
  | [ a; b ] ->
      let ta = U.to_float a.Sim.Pfq_sim.throughput_gbps
      and tb = U.to_float b.Sim.Pfq_sim.throughput_gbps in
      Alcotest.(check bool) (Printf.sprintf "fair (%.2f vs %.2f)" ta tb) true
        (abs_float (ta -. tb) < 1.0)
  | _ -> Alcotest.fail "expected two results"

let pfq_until_cuts_off () =
  let topo = Topology.torus [| 4; 4 |] in
  let specs =
    [ { Workload.Flowgen.arrival_ns = 0; src = 0; dst = 5; size = 100_000_000; weight = 1; priority = 0 } ]
  in
  let results = Sim.Pfq_sim.run ~until_ns:1_000 Sim.Pfq_sim.default_config topo specs in
  Alcotest.(check int) "giant flow not done in 1 us" 0 (List.length results)

(* -- reliability --------------------------------------------------------------- *)

let reliability_lossless () =
  let s =
    Sim.Reliability.run_over_lossy_channel ~loss:(U.fraction 0.0)
      { Sim.Reliability.packets = 50; rtx_timeout_ns = 10_000; max_retries = 5;
        rtx_backoff = 1.0; rtx_cap_ns = max_int }
      ~rtt_ns:2_000
  in
  Alcotest.(check bool) "completed" true s.Sim.Reliability.completed;
  Alcotest.(check int) "no retransmissions" 50 s.Sim.Reliability.transmissions

let reliability_with_loss () =
  let s =
    Sim.Reliability.run_over_lossy_channel ~loss:(U.fraction 0.3)
      { Sim.Reliability.packets = 200; rtx_timeout_ns = 10_000; max_retries = 50;
        rtx_backoff = 1.0; rtx_cap_ns = max_int }
      ~rtt_ns:2_000
  in
  Alcotest.(check bool) "completed despite 30% loss" true s.Sim.Reliability.completed;
  Alcotest.(check int) "all delivered" 200 s.Sim.Reliability.delivered;
  Alcotest.(check bool) "needed retransmissions" true (s.Sim.Reliability.transmissions > 200)

let reliability_gives_up () =
  let s =
    Sim.Reliability.run_over_lossy_channel ~seed:3 ~loss:(U.fraction 0.95)
      { Sim.Reliability.packets = 20; rtx_timeout_ns = 1_000; max_retries = 2;
        rtx_backoff = 1.0; rtx_cap_ns = max_int }
      ~rtt_ns:2_000
  in
  Alcotest.(check bool) "aborts after max retries" false s.Sim.Reliability.completed;
  Alcotest.(check int) "abort marked" (-1) s.Sim.Reliability.finish_ns

let reliability_backoff_spacing () =
  (* Every data packet is lost; the per-packet timer must back off
     exponentially (1000, 2000, 4000, 8000 ns ...) up to the cap. *)
  let eng = Sim.Engine.create () in
  let times = ref [] in
  let result = ref None in
  Sim.Reliability.transfer eng
    { Sim.Reliability.packets = 1; rtx_timeout_ns = 1_000; max_retries = 6;
      rtx_backoff = 2.0; rtx_cap_ns = 10_000 }
    ~send_data:(fun ~seq:_ ~attempt:_ ->
      times := Sim.Engine.now eng :: !times;
      false)
    ~send_ack:(fun ~seq:_ -> true)
    ~ack_delay_ns:100 ~data_delay_ns:100
    (fun s -> result := Some s);
  Sim.Engine.run eng;
  let times = Array.of_list (List.rev !times) in
  Alcotest.(check int) "all attempts made" 7 (Array.length times);
  let gaps = Array.init (Array.length times - 1) (fun i -> times.(i + 1) - times.(i)) in
  Array.iteri
    (fun i g ->
      if i > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "gap %d no smaller than gap %d" i (i - 1))
          true
          (g >= gaps.(i - 1)))
    gaps;
  Alcotest.(check bool) "spacing strictly grows before the cap" true (gaps.(1) > gaps.(0));
  Alcotest.(check int) "spacing capped" 10_000 gaps.(Array.length gaps - 1);
  match !result with
  | Some s -> Alcotest.(check bool) "gave up in the end" false s.Sim.Reliability.completed
  | None -> Alcotest.fail "transfer did not terminate"

let suites =
  [
    ( "sim.engine",
      [
        tc "time ordering" engine_time_order;
        tc "fifo on simultaneous events" engine_same_time_fifo;
        tc "run until" engine_until;
        tc "nested scheduling" engine_nested_scheduling;
        tc "rejects scheduling in the past" engine_rejects_past;
      ] );
    ( "sim.net",
      [
        tc "source-routed delivery and latency" net_delivers_along_route;
        tc "serialization queues back-to-back" net_serialization_queuing;
        tc "tail drop on finite queues" net_tail_drop;
        tc "max queue occupancy tracked" net_max_queue_tracked;
        tc "broadcast reaches every node" net_broadcast_reaches_all;
        tc "wire byte counters" net_wire_counters;
        tc "broadcast requires a FIB" net_requires_fib_for_broadcast;
        tc "bad routes rejected" net_rejects_bad_route;
        tc "steady state allocates nothing" net_steady_state_zero_alloc;
        tc "broadcast flood allocates nothing" net_broadcast_flood_zero_alloc;
      ] );
    ( "sim.metrics",
      [
        tc "flow lifecycle" metrics_flow_lifecycle;
        tc "out-of-order and duplicates" metrics_out_of_order_and_dups;
      ] );
    ( "sim.r2c2",
      [
        tc "delivers every byte" r2c2_delivers_everything;
        tc "single flow near line rate" r2c2_single_flow_line_rate;
        tc "deterministic given seed" r2c2_deterministic;
        tc "byte-identical metric snapshots" r2c2_metrics_snapshot_deterministic;
        tc "heap and calendar backends agree (clean + chaos)" r2c2_backend_differential;
        tc "fair split after recompute" r2c2_rate_limited_after_epoch;
        tc "clean epochs skipped by dirty tracking" r2c2_clean_epochs_skipped;
        tc "broadcast bytes accounted" r2c2_broadcast_overhead_counted;
        tc "latency-model broadcast mode" r2c2_latency_model_broadcast;
        tc "weights respected end-to-end" r2c2_respects_weights;
        tc "per-node control completes and matches" r2c2_per_node_control;
        tc "per-node requires real broadcasts" r2c2_per_node_needs_real_broadcast;
        tc "per-node rejects class reserve" r2c2_per_node_rejects_class_reserve;
        tc "zero recompute interval rejected" r2c2_rejects_zero_recompute_interval;
        tc "zero reselect interval rejected" r2c2_rejects_zero_reselect_interval;
        tc "zero digest interval rejected" r2c2_rejects_zero_digest_interval;
        tc "per-node control is fair" r2c2_per_node_long_flows_fair;
        tc "host-limited flow frees its share" r2c2_host_limited_flow;
        tc "dynamic API: chained request/response" dynamic_chained_flows;
        tc "dynamic API: completion callbacks" dynamic_on_complete_gets_id;
        tc "dynamic API: resumable engine" dynamic_run_engine_resumable;
        tc "dynamic API: input validation" dynamic_validates_inputs;
        tc "live routing reselection (SS3.4)" r2c2_live_reselection;
        tc "reselection does not regress" r2c2_reselection_not_worse;
        tc "reliable digest round allocates nothing" r2c2_digest_round_zero_alloc;
        tc "reliable event hop allocates nothing" r2c2_reliable_event_hop_zero_alloc;
        tc "Per_node digest round allocates nothing" r2c2_per_node_digest_round_zero_alloc;
      ] );
    ( "sim.tcp",
      [
        tc "delivers every byte" tcp_delivers_everything;
        tc "recovers from heavy loss" tcp_recovers_from_heavy_loss;
        tc "single path implies no reordering" tcp_single_path_per_flow;
      ] );
    ( "sim.pfq",
      [
        tc "completes all flows" pfq_completes_all;
        tc "multipath beats line rate" pfq_single_flow_multipath_beats_line_rate;
        tc "upper bound vs r2c2" pfq_mean_fct_not_worse_than_r2c2;
        tc "identical flows fair" pfq_identical_flows_fair;
        tc "until_ns cuts off" pfq_until_cuts_off;
      ] );
    ( "sim.reliability",
      [
        tc "lossless channel" reliability_lossless;
        tc "30% loss recovered" reliability_with_loss;
        tc "gives up after max retries" reliability_gives_up;
        tc "retry spacing backs off exponentially" reliability_backoff_spacing;
      ] );
  ]
