type event =
  | Crash of int
  | Restart of int
  | Fail_link of int * int
  | Restore_link of int * int
  | Flaky of {
      u : int;
      v : int;
      loss : Util.Units.fraction;
      spike : Util.Units.fraction;
    }
  | Unflaky of int * int
  | Partition of int list
  | Heal of int list
  | Surge of Workload.Flowgen.spec list

type step = { at_ns : int; event : event }

let crash ~at u = { at_ns = at; event = Crash u }
let restart ~at u = { at_ns = at; event = Restart u }
let fail_link ~at u v = { at_ns = at; event = Fail_link (u, v) }
let restore_link ~at u v = { at_ns = at; event = Restore_link (u, v) }

let flaky ~at u v ~loss ~spike = { at_ns = at; event = Flaky { u; v; loss; spike } }

let unflaky ~at u v = { at_ns = at; event = Unflaky (u, v) }
let partition ~at group = { at_ns = at; event = Partition group }
let heal ~at group = { at_ns = at; event = Heal group }
let surge ~at specs = { at_ns = at; event = Surge specs }

type invariant =
  | Byte_conservation
  | No_crashed_traversal
  | Reconverge_within of { max_ns : int }
  | View_staleness of { max_ns : int; poll_ns : int }
  | Slo_attainment of { priority : int; min_attainment : float }
  | Tail_latency of { priority : int; percentile : float; max_ns : int }

type report = {
  checks : int;
  violations : string list;
  worst_staleness_ns : int;
  end_ns : int;
}

type state = {
  sim : R2c2_sim.t;
  on_violation : string -> unit;
  mutable checks : int;
  mutable violations : string list;  (* newest first *)
  crashed : (int, unit) Hashtbl.t;  (* scenario's own truth for the tap *)
  mutable diverged_since : int;  (* -1 = views currently consistent *)
  mutable staleness_reported : bool;  (* one violation per stretch *)
  mutable worst_staleness : int;
}

let violate st msg =
  st.violations <- msg :: st.violations;
  st.on_violation msg

(* The cables a partition of [group] cuts: every cable with exactly one
   endpoint inside the set, each once, in deterministic order. *)
let cut_cables topo group =
  let inside = Hashtbl.create 16 in
  List.iter (fun u -> Hashtbl.replace inside u ()) group;
  List.concat_map
    (fun u ->
      Array.to_list
        (Array.map fst (Topology.out_links topo u))
      |> List.filter_map (fun v ->
             if Hashtbl.mem inside v then None else Some (u, v)))
    (List.sort_uniq Int.compare group)

let apply st { at_ns = ns; event } =
  let sim = st.sim in
  let eng = R2c2_sim.engine sim in
  match event with
  | Crash u ->
      (* Physical death first, the monitor mark right after at the same
         instant — an arrival scheduled for this exact ns is not blamed. *)
      R2c2_sim.crash_node_at sim ~ns u;
      Engine.at eng ns (fun () -> Hashtbl.replace st.crashed u ())
  | Restart u ->
      (* Unmark before revival so the node's first legitimate arrivals
         are not blamed either. *)
      Engine.at eng ns (fun () -> Hashtbl.remove st.crashed u);
      R2c2_sim.restart_node_at sim ~ns u
  | Fail_link (u, v) -> R2c2_sim.fail_link_at sim ~ns u v
  | Restore_link (u, v) -> R2c2_sim.restore_link_at sim ~ns u v
  | Flaky { u; v; loss; spike } -> R2c2_sim.flaky_link_at sim ~ns u v ~loss ~spike
  | Unflaky (u, v) -> R2c2_sim.unflaky_link_at sim ~ns u v
  | Partition group ->
      List.iter
        (fun (u, v) -> R2c2_sim.fail_link_at sim ~ns u v)
        (cut_cables (R2c2_sim.topology sim) group)
  | Heal group ->
      List.iter
        (fun (u, v) -> R2c2_sim.restore_link_at sim ~ns u v)
        (cut_cables (R2c2_sim.topology sim) group)
  | Surge specs ->
      (* A flow burst (e.g. one partition/aggregate incast volley); each
         spec's arrival is relative to the step instant. Shed flows are
         silently counted by the simulator's admission control. *)
      List.iter
        (fun (s : Workload.Flowgen.spec) ->
          Engine.at eng (ns + s.arrival_ns) (fun () ->
              ignore
                (R2c2_sim.start_flow ~weight:s.weight ~priority:s.priority sim
                   ~src:s.src ~dst:s.dst ~size:s.size)))
        specs

let install_tap st =
  let net = R2c2_sim.net st.sim in
  let eng = R2c2_sim.engine st.sim in
  Net.set_arrive_tap net (fun ~node _pkt ->
      st.checks <- st.checks + 1;
      if Hashtbl.mem st.crashed node then
        violate st
          (Printf.sprintf "packet traversed crashed node %d at %d ns" node
             (Engine.now eng)))

let rec staleness_poll st ~max_ns ~poll_ns ~stop_ns () =
  let eng = R2c2_sim.engine st.sim in
  let now = Engine.now eng in
  st.checks <- st.checks + 1;
  if R2c2_sim.diverged_nodes st.sim = 0 then begin
    st.diverged_since <- -1;
    st.staleness_reported <- false
  end
  else begin
    if st.diverged_since < 0 then st.diverged_since <- now;
    let dur = now - st.diverged_since in
    if dur > st.worst_staleness then st.worst_staleness <- dur;
    if dur > max_ns && not st.staleness_reported then begin
      st.staleness_reported <- true;
      violate st
        (Printf.sprintf
           "control-plane views diverged for %d ns (bound %d) at %d ns" dur
           max_ns now)
    end
  end;
  if now < stop_ns then
    Engine.after eng poll_ns (staleness_poll st ~max_ns ~poll_ns ~stop_ns)

let end_checks st invariants =
  let res = R2c2_sim.results st.sim in
  let eng = R2c2_sim.engine st.sim in
  List.iter
    (fun inv ->
      match inv with
      | Byte_conservation ->
          st.checks <- st.checks + 1;
          let accounted =
            res.R2c2_sim.delivered_payload + res.R2c2_sim.dropped_payload
            + res.R2c2_sim.blackholed_payload
          in
          if res.R2c2_sim.injected_payload <> accounted then
            violate st
              (Printf.sprintf
                 "byte conservation broken: injected %d <> delivered %d + \
                  dropped %d + blackholed %d"
                 res.R2c2_sim.injected_payload res.R2c2_sim.delivered_payload
                 res.R2c2_sim.dropped_payload res.R2c2_sim.blackholed_payload)
      | Reconverge_within { max_ns } ->
          List.iter
            (fun (f : R2c2_sim.failure) ->
              st.checks <- st.checks + 1;
              if f.reconverge_ns < 0 then
                violate st
                  (Printf.sprintf
                     "%s at %d ns never reconverged before the run ended"
                     f.kind f.fail_ns)
              else if f.reconverge_ns - f.detect_ns > max_ns then
                violate st
                  (Printf.sprintf
                     "%s at %d ns reconverged %d ns after detection (bound \
                      %d)"
                     f.kind f.fail_ns
                     (f.reconverge_ns - f.detect_ns)
                     max_ns))
            res.R2c2_sim.failures
      | View_staleness { max_ns; poll_ns = _ } ->
          st.checks <- st.checks + 1;
          if res.R2c2_sim.terminal_diverged > 0 then
            violate st
              (Printf.sprintf
                 "%d nodes still hold divergent views at the end of the run"
                 res.R2c2_sim.terminal_diverged)
          else if
            st.diverged_since >= 0
            && Engine.now eng - st.diverged_since > max_ns
          then
            violate st
              (Printf.sprintf
                 "views were continuously diverged for the last %d ns of \
                  the run (bound %d)"
                 (Engine.now eng - st.diverged_since)
                 max_ns)
      | Slo_attainment { priority; min_attainment } ->
          st.checks <- st.checks + 1;
          let m = R2c2_sim.metrics st.sim in
          let att = Metrics.slo_attainment m ~priority in
          if att < min_attainment -. 1e-9 then
            violate st
              (Printf.sprintf
                 "class %d SLO attainment %.4f below the %.4f floor (%d \
                  flows completed)"
                 priority att min_attainment
                 (Metrics.class_completed m ~priority))
      | Tail_latency { priority; percentile; max_ns } ->
          st.checks <- st.checks + 1;
          let m = R2c2_sim.metrics st.sim in
          if Metrics.class_completed m ~priority > 0 then begin
            let v = Metrics.class_percentile m ~priority percentile in
            if v > float_of_int max_ns then
              violate st
                (Printf.sprintf
                   "class %d p%g FCT %.0f ns exceeds the %d ns bound" priority
                   percentile v max_ns)
          end
      | No_crashed_traversal -> ())
    invariants

let run ?on_violation ?until_ns ~invariants sim steps =
  let on_violation =
    match on_violation with
    | Some f -> f
    | None -> fun msg -> failwith ("scenario invariant violated: " ^ msg)
  in
  let st =
    {
      sim;
      on_violation;
      checks = 0;
      violations = [];
      crashed = Hashtbl.create 8;
      diverged_since = -1;
      staleness_reported = false;
      worst_staleness = 0;
    }
  in
  List.iter (apply st) steps;
  let last_event_ns = List.fold_left (fun a s -> max a s.at_ns) 0 steps in
  List.iter
    (fun inv ->
      match inv with
      | No_crashed_traversal -> install_tap st
      | View_staleness { max_ns; poll_ns } ->
          if poll_ns <= 0 then invalid_arg "Scenario: poll_ns must be > 0";
          (* Poll through the chaos window plus a reconvergence tail; the
             end check covers divergence persisting past it. *)
          let stop_ns =
            match until_ns with
            | Some u -> u
            | None -> last_event_ns + (2 * max_ns)
          in
          Engine.at (R2c2_sim.engine sim) poll_ns
            (staleness_poll st ~max_ns ~poll_ns ~stop_ns)
      | Byte_conservation | Reconverge_within _ | Slo_attainment _ | Tail_latency _ -> ())
    invariants;
  R2c2_sim.run_engine ?until_ns sim;
  end_checks st invariants;
  {
    checks = st.checks;
    violations = List.rev st.violations;
    worst_staleness_ns = st.worst_staleness;
    end_ns = Engine.now (R2c2_sim.engine sim);
  }
