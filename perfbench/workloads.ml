(* The four workloads and what one repetition of a workload does: set up
   (topology, simulator, flow schedule), run the engine to idle, then read
   the outcome and check it. Everything goes through the public API. Why
   each workload exists is recorded beside its name in BENCHMARK.json:
   each puts one layer in charge and bypasses another. *)

open Sim

type workload = {
  name : string;
  dims : int array;
  cfg : R2c2_sim.config;
  inputs : int;
      (** independent inputs per seed; a run simulates each and reports the
          median of every simulated statistic over them *)
  specs : Topology.t -> Util.Rng.t -> Workload.Flowgen.spec array;
}

(* The graychaos permutation [i -> (i + h/2 + 3) mod h], translated across
   the torus by a seed-drawn offset: every seed gives an isomorphic copy of
   the same traffic, so seeds vary the inputs but not the offered pattern. *)
let permutation ~dims ~size topo rng =
  let h = Topology.host_count topo in
  let offset = Array.map (fun d -> Util.Rng.int rng d) dims in
  let shift v =
    Topology.of_coords topo
      (Array.mapi (fun k c -> (c + offset.(k)) mod dims.(k)) (Topology.coords topo v))
  in
  Array.init h (fun i ->
      {
        Workload.Flowgen.arrival_ns = 0;
        src = shift i;
        dst = shift ((i + (h / 2) + 3) mod h);
        size;
        weight = 1;
        priority = 0;
      })

(* §5.2: Poisson arrivals and uniform host pairs from [Flowgen], with
   Pareto(1.05) sizes of 100 KB mean truncated at 1 MB. The sizes are a
   stratified sample — the distribution's quantiles at (k + 1/2)/n, dealt
   out in a seed-drawn order — so that every seed offers the same bytes
   and the same size mix. With independent draws the tail's quartile
   spread over eight seeds was 30% and the control share's 11%;
   stratified, 13% and 2%. The arrival rate offers 30% of the hosts'
   injection capacity. *)
let pareto ~flows ~link_gbps topo rng =
  let shape = 1.05 and mean = 100_000.0 and max_size = 1_000_000 in
  let scale = mean *. (shape -. 1.0) /. shape in
  let sizes =
    Array.init flows (fun k ->
        let u = (float_of_int k +. 0.5) /. float_of_int flows in
        max 1 (min max_size (int_of_float (Float.round (scale /. ((1.0 -. u) ** (1.0 /. shape)))))))
  in
  let mean_size = float_of_int (Array.fold_left ( + ) 0 sizes) /. float_of_int flows in
  let offered_bytes_per_ns =
    0.3 *. float_of_int (Topology.host_count topo) *. link_gbps /. 8.0
  in
  let specs =
    Array.of_list
      (Workload.Flowgen.poisson_pareto ~shape ~mean_size:mean ~max_size topo rng ~flows
         ~mean_interarrival_ns:(mean_size /. offered_bytes_per_ns))
  in
  let order = Util.Rng.permutation rng flows in
  Array.mapi (fun i (sp : Workload.Flowgen.spec) -> { sp with size = sizes.(order.(i)) }) specs

let base = { R2c2_sim.default_config with recompute_interval_ns = 100_000 }

(* [size_kb] and [flows] override the input sizes: the permutation flow
   size and the pareto-mix flows per input. *)
let make ?size_kb ?(flows = 2000) name =
  let perm dims ~kb cfg =
    let size = 1000 * Option.value size_kb ~default:kb in
    Some { name; dims; inputs = 1; cfg; specs = permutation ~dims ~size }
  in
  match name with
  | "perm-bulk" -> perm [| 8; 8; 8 |] ~kb:1000 base
  | "perm-reliable" ->
      (* Digest rounds stop at the first 50 us tick after the last flow
         finishes. At 100 and 150 KB the last finish sits near a tick, so
         seeds split between two round counts and the control share jumps
         by 9-12%; at 160 KB it falls mid-interval and ten seeds out of
         ten gave the same count. *)
      perm [| 8; 8; 8 |] ~kb:160 { base with reliable_bcast = true; digest_interval_ns = 50_000 }
  | "per-node" -> perm [| 6; 6; 6 |] ~kb:200 { base with control = R2c2_sim.Per_node }
  | "pareto-mix" ->
      Some
        {
          name;
          dims = [| 8; 8; 8 |];
          (* One 2000-flow input's goodput swings by 15% and its tail by
             9% from seed to seed (quartile spread over 64 inputs): the
             last big flow to finish sets the goodput span. The median of
             eight inputs holds both to about 7%. *)
          inputs = 8;
          cfg = base;
          specs = pareto ~flows ~link_gbps:(Util.Units.to_float base.link_gbps);
        }
  | _ -> None

(* Input [j] of a run with [seed]; distinct seeds never share an input. *)
let input_seed w ~seed j = (seed * w.inputs) + j

let names = [ "perm-bulk"; "perm-reliable"; "pareto-mix"; "per-node" ]

type setup = {
  sim : R2c2_sim.t;
  specs : Workload.Flowgen.spec array;
  stamps : float array;
      (** host times before the topology, after it, after simulator
          creation and after workload generation *)
}

let now = Unix.gettimeofday

(* The workload generator and the simulator's own RNG both derive from
   [seed]; flows open from engine events at their arrival times, as
   [R2c2_sim.run] does, so every protocol step falls inside the run. Every
   set-up starts from a collected heap, so that no repetition pays for the
   garbage of the one before. *)
let setup w ~seed =
  Gc.full_major ();
  let t0 = now () in
  let topo = Topology.torus w.dims in
  let t1 = now () in
  let sim = R2c2_sim.create { w.cfg with seed } topo in
  let t2 = now () in
  let specs = w.specs topo (Util.Rng.create seed) in
  let eng = R2c2_sim.engine sim in
  Array.iteri
    (fun i (s : Workload.Flowgen.spec) ->
      Engine.at eng s.arrival_ns (fun () ->
          let id =
            R2c2_sim.start_flow ~weight:s.weight ~priority:s.priority sim ~src:s.src
              ~dst:s.dst ~size:s.size
          in
          assert (id = i)))
    specs;
  { sim; specs; stamps = [| t0; t1; t2; now () |] }

(* Seconds spent building the topology, creating the simulator and
   generating the workload. *)
let setup_parts s = Array.init 3 (fun i -> s.stamps.(i + 1) -. s.stamps.(i))

(* Runs the engine to idle; returns its wall time and the minor words it
   allocated. *)
let run s =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  R2c2_sim.run_engine s.sim;
  let run_s = now () -. t0 in
  (run_s, Gc.minor_words () -. w0)

type outcome = {
  attempted : int;
  completed : int;
  fct_p50_us : float;
  tail_pm : int;
  fct_tail_us : float;
  goodput_gbps : float;
  ctrl_overhead_pct : float;
  digest : string;
  checks : (string * bool) list;
}

let outcome w s =
  let r = R2c2_sim.results s.sim in
  let flows = Metrics.all r.metrics in
  let done_ = List.filter (fun (f : Metrics.flow) -> f.finish_ns >= 0) flows in
  let fcts_us = Array.of_list (List.map (fun f -> float_of_int (Metrics.fct_ns f) /. 1e3) done_) in
  let attempted = Array.length s.specs and completed = List.length done_ in
  let tail_pm = Calc.tail_permille completed in
  let pct pm = if completed = 0 then 0.0 else Calc.percentile fcts_us pm in
  let first_arrival =
    Array.fold_left (fun a (sp : Workload.Flowgen.spec) -> min a sp.arrival_ns) max_int s.specs
  in
  let last_finish = List.fold_left (fun a (f : Metrics.flow) -> max a f.finish_ns) 0 done_ in
  let payload = List.fold_left (fun a (f : Metrics.flow) -> a + f.delivered) 0 flows in
  let data_bytes = int_of_float (Util.Units.to_float r.data_wire_bytes) in
  let control_bytes = int_of_float (Util.Units.to_float r.control_wire_bytes) in
  let digest =
    Calc.digest
      ~flows:(List.map (fun (f : Metrics.flow) -> (f.id, f.finish_ns, f.delivered)) flows)
      ~counters:
        [
          data_bytes;
          control_bytes;
          r.drops;
          r.injected_payload;
          r.delivered_payload;
          r.dropped_payload;
          r.blackholed_payload;
          r.retransmissions;
        ]
  in
  let checks =
    [
      ( "payload conserved (injected = delivered + dropped + blackholed)",
        r.injected_payload = r.delivered_payload + r.dropped_payload + r.blackholed_payload );
      ("terminal_diverged = 0", r.terminal_diverged = 0);
    ]
    @
    if w.cfg.reliable_bcast then [ ("control_converged", R2c2_sim.control_converged s.sim) ]
    else []
  in
  {
    attempted;
    completed;
    fct_p50_us = pct 500;
    tail_pm;
    fct_tail_us = pct tail_pm;
    goodput_gbps = Calc.goodput_gbps ~payload_bytes:payload ~span_ns:(last_finish - first_arrival);
    ctrl_overhead_pct = Calc.ctrl_overhead_pct ~data_bytes ~control_bytes;
    digest;
    checks;
  }
