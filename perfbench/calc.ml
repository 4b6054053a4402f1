(* The benchmark's own arithmetic: tail-percentile choice, the outcome
   ratios, the determinism digest and the result line. Kept apart from
   the simulator calls so that test_calc.ml can pin each formula. *)

(* Percentiles the tail metric may report, in per-mille, highest first. *)
let tail_ladder = [ 999; 995; 990; 980; 950; 900 ]

(* The highest ladder percentile with at least ten samples beyond it: p95
   at 216 samples, p98 at 512, p99.5 at 2000. Below 100 samples no ladder
   rung qualifies and the median stands in for the tail. *)
let tail_permille n =
  match List.find_opt (fun pm -> n * (1000 - pm) >= 10_000) tail_ladder with
  | Some pm -> pm
  | None -> 500

let permille_name pm =
  if pm mod 10 = 0 then Printf.sprintf "p%d" (pm / 10)
  else Printf.sprintf "p%d.%d" (pm / 10) (pm mod 10)

let percentile xs pm = Util.Stats.percentile xs (float_of_int pm /. 10.0)

let median = function
  | [] -> invalid_arg "Calc.median: no samples"
  | xs -> Util.Stats.median (Array.of_list xs)

(* Flows not completed (aborted, shed or unfinished) over flows attempted. *)
let flow_fail_frac ~attempted ~completed =
  if attempted <= 0 then invalid_arg "Calc.flow_fail_frac: nothing attempted";
  float_of_int (attempted - completed) /. float_of_int attempted

(* Control wire bytes as a share of all wire bytes, in percent. *)
let ctrl_overhead_pct ~data_bytes ~control_bytes =
  let total = data_bytes + control_bytes in
  if total <= 0 then 0.0 else 100.0 *. float_of_int control_bytes /. float_of_int total

(* Delivered payload over the span from the first arrival to the last
   finish; bytes per ns times 8 is Gbps. *)
let goodput_gbps ~payload_bytes ~span_ns =
  if span_ns <= 0 then 0.0 else 8.0 *. float_of_int payload_bytes /. float_of_int span_ns

(* 64-bit FNV-1a over each int's eight low-order bytes, little end first. *)
let fnv_basis = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let mix h x =
  let h = ref h in
  for i = 0 to 7 do
    let byte = Int64.of_int ((x lsr (8 * i)) land 0xff) in
    h := Int64.mul (Int64.logxor !h byte) fnv_prime
  done;
  !h

(* The determinism digest: every flow's [(id, finish_ns, delivered)] in the
   order given, then the wire counters. Equal inputs to equal simulations
   give equal strings; any change in a simulated statistic shows. *)
let digest ~flows ~counters =
  let h =
    List.fold_left
      (fun h (id, finish_ns, delivered) -> mix (mix (mix h id) finish_ns) delivered)
      fnv_basis flows
  in
  Printf.sprintf "%016Lx" (List.fold_left mix h counters)

type metric = { name : string; value : float; unit : string }

(* Integers print exactly; other values with all 17 significant digits. *)
let json_number v =
  if not (Float.is_finite v) then invalid_arg "Calc.json_number: not finite"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  let entry m =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value) m.unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map entry metrics))
