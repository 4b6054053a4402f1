(* Tests of the benchmark's own arithmetic. *)

let tail () =
  let check n pm = Alcotest.(check int) (Printf.sprintf "%d samples" n) pm (Calc.tail_permille n) in
  (* The sample counts of the workloads: 216 and 512 permutation flows,
     2000 Pareto flows. *)
  check 216 950;
  check 512 980;
  check 2000 995;
  check 10_000 999;
  (* Exactly ten beyond p95 qualifies; one fewer sample drops to p90. *)
  check 200 950;
  check 199 900;
  check 99 500;
  Alcotest.(check string) "name" "p99.5" (Calc.permille_name 995);
  Alcotest.(check string) "name" "p98" (Calc.permille_name 980);
  (* Interpolated like Util.Stats: p98 of 1..100 lies between 98 and 99. *)
  let xs = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "p98" 98.02 (Calc.percentile xs 980)

let ratios () =
  Alcotest.(check (float 0.0)) "none failed" 0.0
    (Calc.flow_fail_frac ~attempted:512 ~completed:512);
  Alcotest.(check (float 1e-12)) "two of 512" (2.0 /. 512.0)
    (Calc.flow_fail_frac ~attempted:512 ~completed:510);
  Alcotest.check_raises "nothing attempted"
    (Invalid_argument "Calc.flow_fail_frac: nothing attempted") (fun () ->
      ignore (Calc.flow_fail_frac ~attempted:0 ~completed:0));
  Alcotest.(check (float 1e-12)) "quarter" 25.0
    (Calc.ctrl_overhead_pct ~data_bytes:300 ~control_bytes:100);
  Alcotest.(check (float 0.0)) "empty wire" 0.0
    (Calc.ctrl_overhead_pct ~data_bytes:0 ~control_bytes:0);
  Alcotest.(check (float 1e-12)) "1.25 bytes/ns is 10 Gbps" 10.0
    (Calc.goodput_gbps ~payload_bytes:1250 ~span_ns:1000)

(* Pinned against an independent FNV-1a-64 over little-endian 8-byte
   words. *)
let digest () =
  let d = Calc.digest in
  Alcotest.(check string) "empty" "cbf29ce484222325" (d ~flows:[] ~counters:[]);
  Alcotest.(check string) "one flow" "da2bfb225e0d1f05" (d ~flows:[ (1, 2, 3) ] ~counters:[]);
  Alcotest.(check string) "flow and counters" "f735454f3e27fac7"
    (d ~flows:[ (0, 5000, 200_000) ] ~counters:[ 7; 8 ]);
  Alcotest.(check bool) "order matters" true
    (d ~flows:[ (0, 1, 2); (1, 1, 2) ] ~counters:[]
    <> d ~flows:[ (1, 1, 2); (0, 1, 2) ] ~counters:[]);
  Alcotest.(check bool) "a counter matters" true
    (d ~flows:[] ~counters:[ 1; 0 ] <> d ~flows:[] ~counters:[ 0; 1 ])

let json () =
  Alcotest.(check string) "integer" "42" (Calc.json_number 42.0);
  Alcotest.(check string) "all digits" "0.10000000000000001" (Calc.json_number 0.1);
  Alcotest.(check string) "result line"
    "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
     \"metrics\": {\"run_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
    (Calc.result_line ~correct:true ~attempted:3 ~failed:0
       [ { Calc.name = "run_s"; value = 1.5; unit = "s" } ])

let () =
  Alcotest.run "perfbench"
    [
      ( "calc",
        [
          Alcotest.test_case "tail percentile" `Quick tail;
          Alcotest.test_case "outcome ratios" `Quick ratios;
          Alcotest.test_case "determinism digest" `Quick digest;
          Alcotest.test_case "result line" `Quick json;
        ] );
    ]
