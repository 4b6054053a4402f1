(* Hot-path micro-benchmark: raw packet throughput of the simulator's data
   plane and of broadcast forwarding (writes BENCH_hotpath.json).

   Data phase: 512 single-hop streams on the 8x8x8 torus — the 512-node
   rack the paper sizes R2C2 for — each keeping a fixed window of packets
   in flight; every delivery immediately injects the next packet of its
   stream, so the engine spends all its time in the
   enqueue -> serialize -> propagate -> arrive cycle that dominates every
   experiment, with ~1k events pending (the regime where the old binary
   heap paid its O(log n)).

   Broadcast phase: rounds in which every vertex roots one broadcast on
   tree [round mod trees_per_source], so each round is 512 x 511 hops of
   FIB lookup and fan-out.

   Reported per phase: wall-clock packets (hops) per second and minor heap
   words allocated per packet (hop) in steady state, measured after a
   warmup so one-time setup allocation (pools, queues, trees) is excluded.
   The rates of the BENCH_hotpath.json being overwritten are reported
   next to the new ones. The run exits non-zero if either phase allocates
   more than [alloc_budget] words per packet — the CI `hotpath-smoke`
   gate. *)

let streams = 512
let window = 32
let pkt_bytes = 1500
let alloc_budget = 2.0
let report = "BENCH_hotpath.json"

let topo () = Topology.torus [| 8; 8; 8 |]

let make_net topo =
  let eng = Sim.Engine.create () in
  (eng, Sim.Net.create eng topo ~link_gbps:(Util.Units.gbps 100.0) ~hop_latency_ns:100 ())

(* [field] of the report this run is about to overwrite, if it has one. *)
let previous field =
  match In_channel.with_open_text report In_channel.input_lines with
  | exception Sys_error _ -> None
  | lines ->
      List.find_map
        (fun line ->
          Option.join
            (Scanf.sscanf_opt line " \"%s@\": %f" (fun k v -> if k = field then Some v else None)))
        lines

let json_opt = function Some x -> Printf.sprintf "%.0f" x | None -> "null"

(* Returns (packets measured, packets/s, minor words per packet). *)
let data_phase ~quick =
  let per_stream = if quick then 2_000 else 20_000 in
  let warmup = per_stream / 10 in
  let eng, net = make_net (topo ()) in
  (* Stream s runs from node s to its +x ring neighbor: always adjacent,
     and every stream owns a distinct link. *)
  let route_of s = [| s; (s - (s mod 8)) + (((s mod 8) + 1) mod 8) |] in
  (* One interned route per stream, shared by all its packets. *)
  let routes = Array.init streams (fun s -> Sim.Net.intern_route net (route_of s)) in
  let sent = Array.make streams 0 in
  let total = streams * per_stream in
  let warm_total = streams * warmup in
  let delivered = ref 0 in
  let t0 = ref 0.0 and w0 = ref 0.0 in
  let t1 = ref 0.0 and w1 = ref 0.0 in
  let send s =
    Sim.Net.send_data net ~flow:s ~seq:sent.(s) ~last:false ~bytes:pkt_bytes
      ~route:routes.(s);
    sent.(s) <- sent.(s) + 1
  in
  Sim.Net.on_deliver net (fun pkt ->
      incr delivered;
      if !delivered = warm_total then begin
        t0 := Unix.gettimeofday ();
        w0 := Gc.minor_words ()
      end
      else if !delivered = warm_total + total then begin
        t1 := Unix.gettimeofday ();
        w1 := Gc.minor_words ()
      end;
      if Sim.Net.kind net pkt = Sim.Net.code_data then begin
        let flow = Sim.Net.data_flow net pkt in
        if sent.(flow) < warmup + per_stream then send flow
      end);
  for s = 0 to streams - 1 do
    for _ = 1 to window do
      send s
    done
  done;
  Sim.Engine.run eng;
  assert (!delivered = warm_total + total);
  (total, float_of_int total /. (!t1 -. !t0), (!w1 -. !w0) /. float_of_int total)

(* Returns (hops measured, hops/s, minor words per hop). *)
let broadcast_phase ~quick =
  let rounds = if quick then 8 else 40 in
  let topo = topo () in
  let eng, net = make_net topo in
  let b = Broadcast.make topo in
  Sim.Net.set_broadcast net b;
  let hops = ref 0 in
  Sim.Net.on_bcast_deliver net (fun _ ~node:_ -> incr hops);
  let n = Topology.vertex_count topo and tps = Broadcast.trees_per_source b in
  let round r =
    for root = 0 to n - 1 do
      Sim.Net.send_bcast net ~root ~tree:(r mod tps) ~bcast_id:r ~bytes:Wire.broadcast_size ()
    done;
    Sim.Engine.run eng
  in
  (* One warmup round per tree builds every FIB and grows the pools. *)
  for r = 0 to tps - 1 do
    round r
  done;
  let h0 = !hops in
  let t0 = Unix.gettimeofday () and w0 = Gc.minor_words () in
  for r = 0 to rounds - 1 do
    round r
  done;
  let t1 = Unix.gettimeofday () and w1 = Gc.minor_words () in
  let measured = !hops - h0 in
  assert (measured = rounds * n * (n - 1));
  (measured, float_of_int measured /. (t1 -. t0), (w1 -. w0) /. float_of_int measured)

let run ~quick () =
  let prev_pps = previous "packets_per_sec" in
  let prev_bps = previous "broadcast_hops_per_sec" in
  let total, pps, words_per_pkt = data_phase ~quick in
  let bhops, bps, words_per_bhop = broadcast_phase ~quick in
  let json =
    Printf.sprintf
      "{\n\
      \  \"benchmark\": \"hotpath\",\n\
      \  \"topology\": \"torus-8x8x8\",\n\
      \  \"streams\": %d,\n\
      \  \"window\": %d,\n\
      \  \"bytes_per_packet\": %d,\n\
      \  \"packets_measured\": %d,\n\
      \  \"packets_per_sec\": %.0f,\n\
      \  \"minor_words_per_packet\": %.2f,\n\
      \  \"previous_packets_per_sec\": %s,\n\
      \  \"broadcast_hops_measured\": %d,\n\
      \  \"broadcast_hops_per_sec\": %.0f,\n\
      \  \"minor_words_per_broadcast_hop\": %.2f,\n\
      \  \"previous_broadcast_hops_per_sec\": %s,\n\
      \  \"alloc_budget_words_per_packet\": %.1f,\n\
      \  \"quick\": %b\n\
       }\n"
      streams window pkt_bytes total pps words_per_pkt (json_opt prev_pps) bhops bps
      words_per_bhop (json_opt prev_bps) alloc_budget quick
  in
  Out_channel.with_open_text report (fun oc -> output_string oc json);
  print_string json;
  List.iter
    (fun (what, words) ->
      if words > alloc_budget then begin
        Printf.eprintf "hotpath: %.2f minor words per %s exceeds the %.1f budget\n" words what
          alloc_budget;
        exit 1
      end)
    [ ("packet", words_per_pkt); ("broadcast hop", words_per_bhop) ]
