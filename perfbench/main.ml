(* End-to-end benchmark of the packet-level R2C2 simulator.

     bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>

   A run repeats the workload — set up, run the engine to idle, check —
   for about [--seconds] of host time, cycling over the workload's inputs
   for this seed, then prints host cost (medians over the repetitions)
   and the simulated outcome (medians over the inputs). The outcome is
   deterministic for a seed: every repetition of an input must reproduce
   its digest. With [--trace 1] one traced repetition of the first input
   and the single-layer replays follow, and the per-layer metrics are
   printed instead; the spans of that run go to
   perfbench/out/trace-<workload>-<seed>.json. The last line of output is
   the JSON result; the lines before it spell out the same numbers, the
   checks and the digests. *)

type rep = {
  input : int;
  parts : float array;  (** {!Workloads.setup_parts} *)
  run_s : float;
  minor_words : float;
  outcome : Workloads.outcome;
}

(* Set-up is timed at least this many times per run; its median is
   [setup_s]. *)
let min_setups = 15

(* Repeats until every input has run once and another repetition would
   overrun [seconds]. *)
let repeat (w : Workloads.workload) ~seed ~seconds =
  let deadline = Unix.gettimeofday () +. float_of_int seconds in
  let top_heap_words = ref 0 in
  let rec go n reps =
    let input = n mod w.inputs in
    let s = Workloads.setup w ~seed:(Workloads.input_seed w ~seed input) in
    let run_s, minor_words = Workloads.run s in
    if n = 0 then top_heap_words := (Gc.quick_stat ()).top_heap_words;
    let parts = Workloads.setup_parts s in
    let reps = { input; parts; run_s; minor_words; outcome = Workloads.outcome w s } :: reps in
    let per_rep =
      Calc.median (List.map (fun r -> r.run_s +. Array.fold_left ( +. ) 0.0 r.parts) reps)
    in
    if n + 1 < w.inputs || Unix.gettimeofday () +. per_rep < deadline then go (n + 1) reps
    else List.rev reps
  in
  let reps = go 0 [] in
  let extra =
    List.init
      (max 0 (min_setups - List.length reps))
      (fun j ->
        Workloads.setup_parts
          (Workloads.setup w ~seed:(Workloads.input_seed w ~seed (j mod w.inputs))))
  in
  (reps, List.map (fun r -> r.parts) reps @ extra, !top_heap_words)

let usage =
  "usage: run.sh --workload <" ^ String.concat "|" Workloads.names
  ^ "> --seed <n> --seconds <s> --trace <0|1> [--size-kb <n>] [--flows <n>]"

let fail msg =
  prerr_endline msg;
  prerr_endline usage;
  exit 2

let () =
  let name = ref "" and seed = ref 0 and seconds = ref 0 and trace = ref (-1) in
  let size_kb = ref 0 and flows = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string name, " workload name");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " host seconds to spend repeating the workload");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
      ("--size-kb", Arg.Set_int size_kb, " permutation flow size (default: per workload)");
      ("--flows", Arg.Set_int flows, " pareto-mix flows per input (default 2000)");
    ]
  in
  (try Arg.parse_argv Sys.argv spec (fun a -> fail ("unexpected argument " ^ a)) usage with
  | Arg.Bad m | Arg.Help m -> fail m);
  if !seconds < 1 then fail "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  let positive r = if !r > 0 then Some !r else None in
  let w =
    match Workloads.make ?size_kb:(positive size_kb) ?flows:(positive flows) !name with
    | Some w -> w
    | None -> fail ("unknown workload " ^ !name)
  in
  let seed = !seed in
  let reps, setups, top_heap_words = repeat w ~seed ~seconds:!seconds in
  (* The first repetition of each input carries its outcome and digest. *)
  let firsts = List.init w.inputs (fun j -> List.find (fun r -> r.input = j) reps) in
  let outcomes = List.map (fun r -> r.outcome) firsts in
  let o = List.hd outcomes in
  let med f = Calc.median (List.map f outcomes) in
  let attempted = List.fold_left (fun a (x : Workloads.outcome) -> a + x.attempted) 0 outcomes in
  let completed = List.fold_left (fun a (x : Workloads.outcome) -> a + x.completed) 0 outcomes in
  let fail_frac = Calc.flow_fail_frac ~attempted ~completed in
  Printf.printf "workload %s, seed %d: %d repetitions of %d inputs, %d set-ups\n" w.name seed
    (List.length reps) w.inputs (List.length setups);
  List.iteri
    (fun j (x : Workloads.outcome) ->
      Printf.printf
        "input %d: digest %s, fct_p50_us %.3f, fct_tail_us %.3f, goodput_gbps %.3f, \
         ctrl_overhead_pct %.4f\n"
        j x.digest x.fct_p50_us x.fct_tail_us x.goodput_gbps x.ctrl_overhead_pct)
    outcomes;
  Printf.printf "run_s of each repetition: %s\n"
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.3f" r.run_s) reps));
  Printf.printf
    "flows: %d attempted, %d completed, flow_fail_frac %s; fct_tail_us is %s over %d FCTs \
     per input\n"
    attempted completed
    (Calc.json_number fail_frac)
    (Calc.permille_name o.tail_pm) o.completed;
  let checks =
    ( "every repetition reproduces its input's digest",
      List.for_all (fun r -> r.outcome.digest = (List.nth outcomes r.input).digest) reps )
    :: List.concat_map (fun r -> r.outcome.checks) reps
  in
  let metrics, checks =
    if !trace = 0 then
      let m name value unit = { Calc.name; value; unit } in
      ( [
          m "setup_s" (Calc.median (List.map (Array.fold_left ( +. ) 0.0) setups)) "s";
          m "run_s" (Calc.median (List.map (fun r -> r.run_s) reps)) "s";
          m "minor_mwords" (Calc.median (List.map (fun r -> r.minor_words) firsts) /. 1e6) "Mwords";
          m "top_heap_mb" (float_of_int (top_heap_words * (Sys.word_size / 8)) /. 1e6) "MB";
          m "fct_p50_us" (med (fun x -> x.fct_p50_us)) "us";
          m "fct_tail_us" (med (fun x -> x.fct_tail_us)) "us";
          m "goodput_gbps" (med (fun x -> x.goodput_gbps)) "Gbps";
          m "ctrl_overhead_pct" (med (fun x -> x.ctrl_overhead_pct)) "%";
          m "completed_frac" (1.0 -. fail_frac) "ratio";
        ],
        checks )
    else begin
      (try Sys.mkdir "perfbench/out" 0o755 with Sys_error _ -> ());
      let trace_path = Printf.sprintf "perfbench/out/trace-%s-%d.json" w.name seed in
      let metrics, traced_checks, notes =
        Traced.per_layer w ~seed:(Workloads.input_seed w ~seed 0) ~trace_path ~digest:o.digest
          ~setup_parts:setups
      in
      List.iter (fun n -> Printf.printf "note: %s\n" n) notes;
      Printf.printf "trace: %s\n" trace_path;
      (metrics, checks @ traced_checks)
    end
  in
  List.iter
    (fun (c, ok) -> Printf.printf "check %s: %s\n" (if ok then "ok" else "FAILED") c)
    (List.sort_uniq compare checks);
  List.iter
    (fun (m : Calc.metric) ->
      Printf.printf "  %-26s %s %s\n" m.name (Calc.json_number m.value) m.unit)
    metrics;
  print_endline
    (Calc.result_line ~correct:(List.for_all snd checks) ~attempted ~failed:(attempted - completed)
       metrics)
