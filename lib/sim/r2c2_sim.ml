type control = Global_epoch | Per_node

module U = Util.Units

type config = {
  link_gbps : U.gbps;
  hop_latency_ns : int;
  headroom : U.fraction;
  recompute_interval_ns : int;
  mtu : int;
  real_broadcast : bool;
  queue_capacity : int;
  control : control;
  reselect_interval_ns : int option;
      (** §3.4: when set, long flows are periodically re-assigned a routing
          protocol (RPS vs VLB) by the GA selector *)
  rtx_timeout_ns : int;  (** initial per-packet retransmission timeout *)
  rtx_backoff : float;  (** timeout multiplier per unacknowledged attempt *)
  rtx_cap_ns : int;  (** backed-off timeout ceiling *)
  reliable_bcast : bool;
      (** sequence every flow-event broadcast, run receive windows with
          NACK repair and periodic anti-entropy digests *)
  digest_interval_ns : int;  (** anti-entropy beacon period per source *)
  bcast_log_cap : int;  (** origin replay-log depth per tree *)
  control_loss : U.fraction;  (** per-hop control-packet loss probability *)
  control_reorder : U.fraction;  (** per-hop extra-delay (reorder) probability *)
  control_dup : U.fraction;  (** per-hop duplication probability *)
  (* -- SLO-guarded overload control; every default leaves it off -- *)
  queue_high_watermark : int;
      (** link-queue bytes above which the link counts as overloaded;
          [max_int] (the default) disables detection entirely *)
  queue_low_watermark : int;  (** hysteresis: overload clears only below this *)
  overload_control : bool;
      (** master switch for admission shedding and PAUSE backpressure *)
  slos : (int * int) list;
      (** (priority class, FCT bound ns) promises fed to {!Metrics.set_slo} *)
  reserve_priority : int;
      (** waterfill class reserve applies to classes >= this priority *)
  class_reserve : U.fraction;
      (** link-capacity fraction withheld from the low classes; 0 = off *)
  engine_backend : Engine.backend;
      (** event-queue implementation; [Calendar] is the production O(1)
          wheel, [Binary_heap] the reference for differential tests *)
  seed : int;
}

let default_config =
  {
    link_gbps = U.gbps 10.0;
    hop_latency_ns = 100;
    headroom = U.fraction 0.05;
    recompute_interval_ns = 500_000;
    mtu = 1500;
    real_broadcast = true;
    queue_capacity = max_int;
    control = Global_epoch;
    reselect_interval_ns = None;
    rtx_timeout_ns = 50_000;
    rtx_backoff = 2.0;
    rtx_cap_ns = 1_000_000;
    reliable_bcast = false;
    digest_interval_ns = 100_000;
    bcast_log_cap = 65536;
    control_loss = U.fraction 0.0;
    control_reorder = U.fraction 0.0;
    control_dup = U.fraction 0.0;
    queue_high_watermark = max_int;
    queue_low_watermark = 0;
    overload_control = false;
    slos = [];
    reserve_priority = 1;
    class_reserve = U.fraction 0.0;
    engine_backend = Engine.Calendar;
    seed = 1;
  }

type failure = {
  kind : string;  (** "link" | "node" | "restore-link" | "restore-node" *)
  fail_ns : int;
  detect_ns : int;
  mutable reconverge_ns : int;  (** -1 until the first post-detection rate epoch *)
  mutable aborted : int;  (** flows dropped because an endpoint died *)
  mutable repaired : int;  (** broadcast trees rebuilt at detection *)
}

type result = {
  metrics : Metrics.t;
  max_queue : int array;
  drops : int;
  data_wire_bytes : U.bytes;
  control_wire_bytes : U.bytes;
  recomputes : int;
  rate_updates : (int * U.gbps) list;
  reselections : int;
  flows_rerouted : int;
  blackholes : int;
  blackholed_bytes : int;
  injected_payload : int;
  delivered_payload : int;
  dropped_payload : int;
  blackholed_payload : int;
  retransmissions : int;
  aborted_flows : int list;
  failures : failure list;
  tree_repairs : int;
  tree_repair_bytes : int;
  (* control-plane reliability *)
  ctrl_lost : int;
  ctrl_lost_bytes : int;
  ctrl_reordered : int;
  ctrl_dupped : int;
  blackholed_data_bytes : int;
  blackholed_ctrl_bytes : int;
  nacks_sent : int;
  event_retransmits : int;  (** origin replays answering NACKs *)
  sync_requests : int;
  syncs_sent : int;
  sync_bytes : int;  (** full-state repair traffic, wire bytes at origin *)
  dup_events_absorbed : int;  (** deliveries deduped by receive windows *)
  divergence_epochs : int;  (** rate epochs with >1 distinct node view *)
  reconverge_samples : int list;
      (** ns from first divergent epoch to the next all-identical one *)
  terminal_diverged : int;  (** nodes still diverged when the run ended *)
  loss_ewma : U.fraction;
  effective_headroom : U.fraction;
  (* robustness: gray failures and crash-restart *)
  flaky_lost : int;  (** packets lost to flaky-link injection *)
  flaky_lost_bytes : int;
  quarantines : int;  (** Healthy/Probation -> Quarantined transitions *)
  probations : int;
  recoveries : int;  (** Probation -> Healthy transitions *)
  joins_sent : int;  (** JOIN announcements, retries included *)
  rejoins : (int * int * int) list;
      (** (node, restart ns, caught-up ns) per completed rejoin *)
  rejoins_pending : int;  (** restarted nodes not yet caught up at run end *)
  (* robustness: overload control *)
  shed_flows : int;  (** flows refused by admission control *)
  shed_payload : int;  (** payload bytes those flows would have injected *)
  pauses_sent : int;  (** PAUSE packets emitted by congested receivers *)
  pauses_received : int;  (** PAUSEs that reached their paced sender *)
  overload_epochs : int;  (** rate epochs with at least one overloaded link *)
  overloaded_links : int;  (** links still above the watermark at run end *)
}

type fstate = {
  idx : int;
  src : int;
  dst : int;
  mutable proto : Routing.protocol;
  weight : float;
  priority : int;
  mutable wf_links : (int * U.fraction) array;
  demand : U.byte_rate option;  (** host cap, wire bytes per ns *)
  started_ns : int;
  mutable remaining : int;  (** payload bytes not yet injected *)
  mutable seq : int;
  mutable rate : float;  (** allocated rate, wire bytes per ns *)
  mutable last_inject : int;
  mutable inject_gen : int;
  mutable visible : bool;  (** start broadcast reached every node *)
  mutable done_sending : bool;
  rtx : (int, int) Hashtbl.t;  (** seq -> retransmission attempts so far *)
  mutable failed : bool;  (** aborted: endpoint died or retries exhausted *)
  mutable btree : int;
      (** reliable mode: the tree carrying every event of this flow, so the
          per-(source, tree) window orders finish after start; -1 until the
          start broadcast picks one *)
}

(* Per-cable gray-failure health estimator state, indexed by the canonical
   directed link id (src < dst); allocated only once a flaky link exists so
   clean runs never touch it. *)
type hstate = {
  ewma : float array;  (* per-cable loss-rate EWMA *)
  prev_tx : int array;  (* flaky_link_stats watermarks from the last tick *)
  prev_lost : int array;
  since : int array;  (* ns of the cable's last health transition *)
}

type t = {
  cfg : config;
  rel_cfg : Reliability.config;
      (** derived from [cfg] once; building it per retransmission timer
          allocated a record on the packet-loss path *)
  topo : Topology.t;
  eng : Engine.t;
  net : Net.t;
  bcast : Broadcast.t;
  rctx : Routing.ctx;
  rng : Util.Rng.t;
  root_rng : Util.Rng.t;
  mtrcs : Metrics.t;
  cap_bytes_ns : float;  (** link capacity, wire bytes per ns (hot path, raw) *)
  capacities : U.byte_rate array;
  active : (int, fstate) Hashtbl.t;
  all_states : (int, fstate) Hashtbl.t;  (** only grows: every id in a view is here *)
  views : (int, unit) Hashtbl.t array;  (** per-node traffic-matrix views (Per_node) *)
  view_totals : int array;  (** per node: {!Rbcast} set hash of its view *)
  view_slices : int array;  (** reliable: the same per (node, origin), see [slice] *)
  bcast_seen : (int, int ref) Hashtbl.t;
      (** receipt counters: flow idx * 2 for start, * 2 + 1 for finish *)
  on_complete : (int, int -> unit) Hashtbl.t;
  mutable next_id : int;
  mutable recomputes : int;
  mutable rate_updates : (int * U.gbps) list;
  mutable rate_update_count : int;
  mutable loop_running : bool;
  mutable reselections : int;
  mutable flows_rerouted : int;
  mutable reselect_running : bool;
  galloc : Congestion.Waterfill.Inc.t option;
      (** Global_epoch: incremental allocator mirroring the visible,
          still-sending flow set; clean epochs are skipped in O(1) *)
  mutable epoch_dirty : bool;
      (** Per_node: any view/flow event since the last epoch; a clean epoch
          leaves every node's rates untouched and is skipped *)
  mutable bcast_target : int;
      (** copies needed for global visibility: alive vertices - 1 *)
  mutable injected_payload : int;  (** payload bytes of every transmission *)
  mutable delivered_payload : int;  (** payload arriving at destinations, pre-dedup *)
  mutable dropped_payload : int;  (** payload lost to queue tail drops *)
  mutable blackholed_payload : int;  (** payload destroyed by dead links/nodes *)
  mutable retransmissions : int;
  mutable aborted : int list;  (** newest first *)
  mutable failures : failure list;  (** newest first *)
  (* -- control-plane reliability (reliable_bcast) -- *)
  origins : (int * int) Rbcast.origin array;
      (** per source; payload = (bcast_id, wire bytes) for replay *)
  rx : int Rbcast.table;
      (** every node's receive window per (root, tree); payload = bcast_id *)
  chaos_on : bool;
  mutable digest_running : bool;
  mutable nacks_sent : int;
  mutable event_retransmits : int;
  mutable sync_requests : int;
  mutable syncs_sent : int;
  mutable sync_bytes : int;
  (* -- view-divergence watchdog bookkeeping -- *)
  mutable divergence_epochs : int;
  mutable diverged_since : int;  (** ns of first divergent epoch; -1 clean *)
  mutable reconverge_samples : int list;  (** newest first *)
  (* -- graceful degradation -- *)
  loss_headroom : Congestion.Overload.Headroom.t;
  mutable prev_ctrl_hops : int;
  mutable prev_ctrl_lost : int;
  (* -- crash-restart rejoin -- *)
  pending_rejoins : (int, int) Hashtbl.t;  (* node -> restart ns *)
  mutable joins_sent : int;
  (* -- gray-failure health estimation -- *)
  mutable health : hstate option;
  mutable health_running : bool;
  mutable quarantines : int;
  mutable probations : int;
  mutable recoveries : int;
  (* -- overload control (admission shedding + PAUSE backpressure) -- *)
  overload_on : bool;  (** copy of [cfg.overload_control] for the hot paths *)
  admission : Congestion.Overload.Admission.t option;
  pacers : Congestion.Overload.Pacer.t array;  (** per sender node *)
  pause_cls : int array;
      (** lowest class the node's last PAUSE covers; [max_int] = never paused *)
  last_pause : int array;  (** per receiver: ns of its last emitted PAUSE *)
  mutable shed_flows : int;
  mutable shed_payload : int;
  mutable pauses_sent : int;
  mutable pauses_received : int;
  mutable overload_epochs : int;
}

let header = Wire.data_header_size

(* Spanning trees per broadcast source (§3.2). *)
let trees_per_source = 4

let engine t = t.eng
let metrics t = t.mtrcs
let topology t = t.topo

(* The reliable machinery only exists when broadcasts are physically
   simulated; [create] rejects the other combination. *)
let reliable t = t.cfg.reliable_bcast && t.cfg.real_broadcast

(* -- epoch dirty tracking -------------------------------------------------- *)

(* Every event that can change the next rate computation funnels through
   these: the flow set (visibility, completion), demands and routes. *)

let mark_visible t st =
  if not st.visible then begin
    st.visible <- true;
    t.epoch_dirty <- true;
    match t.galloc with
    | Some inc when not st.done_sending ->
        Congestion.Waterfill.Inc.add_flow ~weight:st.weight ~priority:st.priority
          ?demand:st.demand inc ~id:st.idx st.wf_links
    | _ -> ()
  end

let flow_done_sending t st =
  if not st.done_sending then begin
    st.done_sending <- true;
    t.epoch_dirty <- true;
    match t.galloc with
    | Some inc when Congestion.Waterfill.Inc.mem inc ~id:st.idx ->
        Congestion.Waterfill.Inc.remove_flow inc ~id:st.idx
    | _ -> ()
  end

(* -- reliable broadcast: windows, NACK repair, anti-entropy ---------------- *)

let win t ~node ~root ~tree = Rbcast.win t.rx ~origin:root ~tree ~receiver:node

(* -- per-node views (Per_node) ---------------------------------------------- *)

(* Where node [node] keeps the hash of its view of [root]'s flows. *)
let slice t ~node ~root = (node * Array.length t.views) + root

(* Every write to a view goes through these two, which keep the node's
   hashes in step with it. [d] is 0 exactly when the view did not change:
   no id >= 0 has a zero term. *)
let view_mark t ~node id ~live =
  let view = t.views.(node) in
  let d = if live then Rbcast.add_id view id () else Rbcast.remove_id view id in
  t.view_totals.(node) <- t.view_totals.(node) + d;
  if d <> 0 && reliable t then begin
    let k = slice t ~node ~root:(Hashtbl.find t.all_states id).src in
    t.view_slices.(k) <- t.view_slices.(k) + d
  end

let view_reset t ~node =
  Hashtbl.reset t.views.(node);
  t.view_totals.(node) <- 0;
  if reliable t then Array.fill t.view_slices (slice t ~node ~root:0) (Array.length t.views) 0

(* JOIN announcements ride the broadcast fabric under a sentinel id well
   clear of flow events (ids >= 0) and batched reselection announcements
   (small negatives). *)
let bcast_id_join = min_int

(* Key window [w] to the incarnation stamped on an incoming packet or
   digest; a newer one re-keys every tree of the root, as a JOIN does.
   Returns false for stale packets. On clean runs every incarnation is 0,
   so this never changes state. *)
let accept_inc t w ~inc =
  match Rbcast.observe_origin_incarnation t.rx w ~inc with
  | Rbcast.Current | Rbcast.Rekeyed -> true
  | Rbcast.Stale -> false

(* Apply one flow-event broadcast at a node: update the node's view of the
   traffic matrix (Per_node) and the global visibility counter. In reliable
   mode this runs only on window-accepted deliveries, so each node counts
   each event exactly once whatever the duplication rate. *)
let apply_bcast_event t ~node bcast_id =
  (* Negative ids are batched route-change announcements (§3.4); only flow
     start/finish events update the views. *)
  if t.cfg.control = Per_node && bcast_id >= 0 then begin
    let flow = bcast_id / 2 in
    t.epoch_dirty <- true;
    view_mark t ~node flow ~live:(bcast_id land 1 = 0)
  end;
  match Hashtbl.find_opt t.bcast_seen bcast_id with
  | None -> ()
  | Some count ->
      incr count;
      (* [>=]: after a node failure the target shrinks to the alive count,
         and stale pre-failure copies may still arrive. *)
      if !count >= t.bcast_target && bcast_id land 1 = 0 then begin
        match Hashtbl.find_opt t.active (bcast_id / 2) with
        | Some st -> mark_visible t st
        | None -> ()
      end

(* Apply the events window [w] holds buffered behind its last delivery. *)
let rec drain_window t ~node w =
  match Rbcast.take_next t.rx w with
  | Some bcast_id ->
      apply_bcast_event t ~node bcast_id;
      drain_window t ~node w
  | None -> ()

(* A NACK with an empty range ([to_seq < from_seq]) is a full-state sync
   request — sent when a node is sequence-caught-up with an origin yet
   hashes to a different live-flow set. *)
let send_nack t ~node ~root ~tree ~from_seq ~to_seq =
  if
    Net.node_up t.net node && Net.node_up t.net root
    && Topology.reachable t.topo node root
  then begin
    if to_seq < from_seq then t.sync_requests <- t.sync_requests + 1
    else t.nacks_sent <- t.nacks_sent + 1;
    (* One ECMP path per (root, tree) stream. *)
    let route =
      Net.intern_route t.net
        (Routing.ecmp_path t.rctx
           ~flow_id:((root * trees_per_source) + tree)
           ~src:node ~dst:root)
    in
    Net.send_nack t.net ~root ~tree ~from_seq ~to_seq ~requester:node
      ~bytes:Wire.nack_size ~route;
    Net.release_route t.net route
  end

(* The per-window repair timer: armed on the first sign of a gap (an
   out-of-order arrival or a digest advertising unseen sequences), it NACKs
   every open range after a short delay and re-arms until the window is
   whole — so a lost repair is simply requested again. A timer that
   outlives its window's generation (a crash or restart wiped it, or a
   newer incarnation re-keyed it) does nothing: the wipe or re-key also
   dropped the latch, so the window arms a timer of its own when needed. *)
let nack_delay_ns = 20_000

let rec schedule_nack t ~node ~root ~tree w =
  if Rbcast.arm t.rx w then begin
    let gen = Rbcast.generation t.rx w in
    Engine.after t.eng nack_delay_ns (fun () -> fire_nack t ~node ~root ~tree w gen)
  end

and fire_nack t ~node ~root ~tree w gen =
  if Rbcast.generation t.rx w = gen then begin
    Rbcast.disarm t.rx w;
    if
      Net.node_up t.net node && Net.node_up t.net root
      && Topology.reachable t.topo node root
    then begin
      match Rbcast.missing t.rx w with
      | [] -> ()
      | gaps ->
          List.iteri
            (fun i (a, b) ->
              if i < 4 then send_nack t ~node ~root ~tree ~from_seq:a ~to_seq:b)
            gaps;
          schedule_nack t ~node ~root ~tree w
    end
  end

(* Full-state repair (Per_node): the origin ships its live-flow ids and
   per-tree last sequence numbers; the requester replaces its per-source
   view slice and fast-forwards the windows. Counted as repair traffic. *)
let sync_header_bytes = 16

let send_sync t ~root ~requester =
  if
    t.cfg.control = Per_node && Net.node_up t.net root
    && Net.node_up t.net requester
    && Topology.reachable t.topo root requester
  then begin
    let o = t.origins.(root) in
    let entries = Rbcast.live_ids o in
    let last_seqs =
      Array.init trees_per_source (fun tr -> Rbcast.last_seq o ~tree:tr)
    in
    let bytes =
      min t.cfg.mtu
        (sync_header_bytes + (4 * List.length entries) + (4 * trees_per_source))
    in
    t.syncs_sent <- t.syncs_sent + 1;
    t.sync_bytes <- t.sync_bytes + bytes;
    let route =
      Net.intern_route t.net
        (Routing.ecmp_path t.rctx ~flow_id:(root + (131 * requester)) ~src:root
           ~dst:requester)
    in
    Net.send_sync t.net ~root ~entries ~last_seqs ~bytes ~route;
    Net.release_route t.net route
  end

(* Drop every flow sourced at [root] from the node's view; true if any. *)
let drop_slice t ~node ~root =
  let n = Hashtbl.length t.views.(node) in
  Array.iter
    (fun id ->
      if (Hashtbl.find t.all_states id).src = root then view_mark t ~node id ~live:false)
    (Util.Tbl.sorted_keys ~cmp:Int.compare t.views.(node));
  Hashtbl.length t.views.(node) < n

let apply_sync t ~node ~root ~entries ~last_seqs =
  if t.cfg.control = Per_node && Net.node_up t.net node then begin
    (* Replace the per-source slice of the view with the origin's truth. *)
    ignore (drop_slice t ~node ~root);
    List.iter (fun id -> view_mark t ~node id ~live:true) entries;
    t.epoch_dirty <- true;
    (* Jump every window past what the sync covers; events buffered beyond
       it are strictly newer and still apply. *)
    Array.iteri
      (fun tree last ->
        let w = win t ~node ~root ~tree in
        Rbcast.fast_forward t.rx w ~next:(last + 1);
        drain_window t ~node w)
      last_seqs
  end

(* A JOIN announcement from a restarted node: re-key every window for that
   root to the new incarnation (tree 0 speaks for all: the trees of one
   origin at one receiver are always keyed alike) — wiping the pre-crash window state, which
   would otherwise absorb the fresh sequence space as duplicates — and
   forget the joiner's pre-crash flows (anything still real arrives again
   on the fresh incarnation's stream). The joiner pulls full state itself
   with snapshot requests, so receivers only reset here. *)
let handle_join t ~node ~joiner ~inc =
  if reliable t then
    ignore (Rbcast.observe_origin_incarnation t.rx (win t ~node ~root:joiner ~tree:0) ~inc);
  if t.cfg.control = Per_node && drop_slice t ~node ~root:joiner then t.epoch_dirty <- true

(* -- data plane: token-bucket pacing and source routing ------------------- *)

let rec inject t st =
  (* A dead sender stops existing: no injections, no rescheduling. The flow
     is aborted when the failure is detected. *)
  if Net.node_up t.net st.src then begin
    let wire = min t.cfg.mtu (st.remaining + header) in
    let payload = wire - header in
    st.remaining <- st.remaining - payload;
    let last = st.remaining = 0 in
    if last then flow_done_sending t st;
    st.last_inject <- Engine.now t.eng;
    t.injected_payload <- t.injected_payload + payload;
    Metrics.note_first_tx t.mtrcs ~id:st.idx ~now:(Engine.now t.eng);
    let path = Routing.sample_path t.rctx t.rng st.proto ~src:st.src ~dst:st.dst in
    let route = Net.intern_route t.net path in
    Net.send_data t.net ~flow:st.idx ~seq:st.seq ~last ~bytes:wire ~route;
    Net.release_route t.net route;
    st.seq <- st.seq + 1;
    if not st.done_sending then schedule_injection t st
  end

and schedule_injection t st =
  st.inject_gen <- st.inject_gen + 1;
  let gen = st.inject_gen in
  let wire = min t.cfg.mtu (st.remaining + header) in
  (* A host-limited flow never injects above its demand, whatever the
     allocation says. *)
  let pace =
    match st.demand with
    | Some d -> Float.min st.rate (d : U.byte_rate :> float)
    | None -> st.rate
  in
  (* Backpressure: a paced sender scales the injection rate of its covered
     classes down by the AIMD pacer, floored like {!apply_rate} so a flow
     always trickles and can finish. *)
  let pace =
    if t.overload_on && st.priority >= t.pause_cls.(st.src) then
      Float.max (0.001 *. t.cap_bytes_ns)
        (pace *. Congestion.Overload.Pacer.scale t.pacers.(st.src))
    else pace
  in
  let gap = int_of_float (ceil (float_of_int wire /. pace)) in
  let tnext = max (Engine.now t.eng) (st.last_inject + gap) in
  Engine.at t.eng tnext (fun () ->
      if st.inject_gen = gen && not st.done_sending then inject t st)

(* -- control plane: broadcast and rate computation ------------------------ *)

let send_flow_broadcast t st event =
  let bcast_id =
    (2 * st.idx)
    +
    match event with
    | Wire.Flow_start -> 0
    | Wire.Flow_finish | Wire.Demand_update | Wire.Route_change -> 1
  in
  if t.cfg.real_broadcast then begin
    Hashtbl.replace t.bcast_seen bcast_id (ref 0);
    if reliable t then begin
      (* Every event of a flow rides the tree picked at its start, so the
         per-(source, tree) window orders the finish after the start at
         every receiver. *)
      let o = t.origins.(st.src) in
      (match event with
      | Wire.Flow_start ->
          if st.btree < 0 then
            st.btree <- Broadcast.choose_tree t.bcast t.root_rng ~src:st.src;
          Rbcast.mark_live o st.idx
      | Wire.Flow_finish -> Rbcast.mark_dead o st.idx
      | Wire.Demand_update | Wire.Route_change -> ());
      let bytes = Wire.seq_broadcast_size in
      let seq = Rbcast.send o ~tree:st.btree (bcast_id, bytes) in
      Net.send_bcast t.net ~seq ~inc:(Rbcast.incarnation o) ~root:st.src
        ~tree:st.btree ~bcast_id ~bytes ()
    end
    else begin
      let tree = Broadcast.choose_tree t.bcast t.root_rng ~src:st.src in
      Net.send_bcast t.net ~root:st.src ~tree ~bcast_id ~bytes:Wire.broadcast_size ()
    end
  end
  else begin
    match event with
    | Wire.Flow_start ->
        let tree = Broadcast.choose_tree t.bcast t.root_rng ~src:st.src in
        let depth = Broadcast.depth t.bcast ~src:st.src ~tree in
        let tx = Net.tx_time_ns t.net Wire.broadcast_size in
        Engine.after t.eng (depth * (t.cfg.hop_latency_ns + tx)) (fun () -> mark_visible t st)
    | Wire.Flow_finish | Wire.Demand_update | Wire.Route_change -> ()
  end

let apply_rate t st (r : U.byte_rate) =
  let r = Float.max (0.001 *. t.cap_bytes_ns) (r : U.byte_rate :> float) in
  if abs_float (r -. st.rate) > 1e-12 then begin
    st.rate <- r;
    if not st.done_sending then schedule_injection t st
  end;
  if t.rate_update_count < 10_000 then begin
    t.rate_update_count <- t.rate_update_count + 1;
    t.rate_updates <- (Engine.now t.eng, U.gbps (r *. 8.0)) :: t.rate_updates
  end

let wf_of st =
  Congestion.Waterfill.flow ~weight:st.weight ~priority:st.priority ?demand:st.demand ~id:st.idx
    st.wf_links

(* Believed flow sets, as ascending id arrays, compared exactly. Buckets
   hash with [Hashtbl.hash], which reads only the first ten ids, but two
   sets that collide on it stay distinct keys, so a collision can never
   share rates between them. *)
module Flow_sets = Hashtbl.Make (struct
  type t = int array

  let equal (a : int array) b = a = b
  let hash (ids : int array) = Hashtbl.hash ids
end)

let sending_by_node t =
  let own = Array.make (Array.length t.views) [] in
  Util.Tbl.iter_sorted ~cmp:Int.compare
    (fun id st -> if not st.done_sending then own.(st.src) <- id :: own.(st.src))
    t.active;
  own

(* The flows a node believes exist, ascending: its view plus [own] — its
   still-sending flows, which it always knows (a restart wipes the view,
   not the sender). *)
let believed_ids t ~node ~own =
  let known =
    Util.Tbl.fold_sorted ~cmp:Int.compare (fun id () acc -> id :: acc) t.views.(node) own
  in
  Array.of_list (List.sort_uniq Int.compare known)

(* Within one call the waterfill is a pure function of the flow records
   (one shared [fstate] per id), the headroom and the capacities, so equal
   id arrays give bit-identical rate vectors. *)
let allocate_ids t ids =
  let flows = Array.map (Hashtbl.find t.all_states) ids in
  let rates =
    Congestion.Waterfill.allocate
      ~headroom:(Congestion.Overload.Headroom.effective t.loss_headroom)
      ~capacities:t.capacities (Array.map wf_of flows)
  in
  (flows, rates)

(* Per-node control (§3.3, the paper's actual design): every sender runs
   water-filling over its own broadcast-built view of the traffic matrix
   and rate-limits only its own flows. Views differ transiently — that is
   precisely what the headroom absorbs. Views only change when a broadcast
   delivery, completion or reroute happened since the last epoch
   ([epoch_dirty]); a quiet epoch is skipped outright. Senders whose
   believed sets are equal would compute the same vector, so each distinct
   set is allocated once per epoch ([recomputes] counts those) and every
   sender applies its own flows' rates from it. *)
let recompute_per_node t =
  (* Measured: 1 set when views agree, up to 14 in one epoch at 2%
     control loss on the 4x4x4 permutation. *)
  let memo = Flow_sets.create 8 in
  Array.iteri
    (fun node own ->
      match own with
      | [] -> ()
      | _ :: _ ->
          let ids = believed_ids t ~node ~own in
          let flows, rates =
            match Flow_sets.find_opt memo ids with
            | Some shared -> shared
            | None ->
                t.recomputes <- t.recomputes + 1;
                let fresh = allocate_ids t ids in
                Flow_sets.replace memo ids fresh;
                fresh
          in
          Array.iteri (fun i st -> if st.src = node then apply_rate t st rates.(i)) flows)
    (sending_by_node t)

(* Global-epoch approximation: every node would run the same water-filling
   over (nearly) the same visible flow set; run it once per epoch and apply
   the rates at the senders. The `ablation` bench compares this against
   Per_node. The incremental allocator is kept in sync by the visibility /
   completion / reroute events, so an epoch with no event returns the
   cached rates in O(1) and applies nothing. *)
let recompute_global t inc =
  let open Congestion.Waterfill in
  if Inc.live_flows inc > 0 && Inc.is_dirty inc then begin
    t.recomputes <- t.recomputes + 1;
    Inc.allocate inc;
    Inc.iter_rates inc (fun ~id ~rate ->
        match Hashtbl.find_opt t.active id with
        | Some st -> apply_rate t st rate
        | None -> ())
  end

(* Graceful degradation (§3.3, {!Congestion.Overload.Headroom}): the
   headroom the waterfill reserves grows with the per-hop control-loss
   fraction seen over each rate epoch. *)
let update_loss_ewma t =
  if t.cfg.reliable_bcast then begin
    let hops = Net.ctrl_hops t.net and lost = Net.ctrl_lost t.net in
    Congestion.Overload.Headroom.note_loss t.loss_headroom ~sent:(hops - t.prev_ctrl_hops)
      ~lost:(lost - t.prev_ctrl_lost);
    t.prev_ctrl_hops <- hops;
    t.prev_ctrl_lost <- lost;
    match t.galloc with
    | Some inc ->
        Congestion.Waterfill.Inc.set_headroom inc
          (Congestion.Overload.Headroom.effective t.loss_headroom)
    | None -> ()
  end

(* -- view-divergence watchdog --------------------------------------------- *)

let diverged_nodes t =
  (* Alive nodes off the modal view hash; [view_totals] is empty unless
     Per_node. *)
  let counts = Hashtbl.create 8 and alive = ref 0 in
  Array.iteri
    (fun node h ->
      if Net.node_up t.net node then begin
        incr alive;
        Hashtbl.replace counts h (1 + Option.value ~default:0 (Hashtbl.find_opt counts h))
      end)
    t.view_totals;
  !alive - Util.Tbl.fold_sorted ~cmp:Int.compare (fun _ n m -> max n m) counts 0

(* Every rate epoch, compare the traffic-matrix hash across alive nodes.
   Divergent epochs are counted and the span from first divergence to the
   next all-identical epoch is a reconvergence sample. Pure observation —
   repair itself is driven by NACKs and digests. *)
let views_identical t = diverged_nodes t = 0

let note_divergence t =
  if t.cfg.control = Per_node && (t.cfg.reliable_bcast || t.chaos_on) then begin
    let now = Engine.now t.eng in
    if not (views_identical t) then begin
      t.divergence_epochs <- t.divergence_epochs + 1;
      if t.diverged_since < 0 then t.diverged_since <- now
    end
    else if t.diverged_since >= 0 then begin
      t.reconverge_samples <- (now - t.diverged_since) :: t.reconverge_samples;
      t.diverged_since <- -1
    end
  end

(* The recompute loop stops with the last flow, so a divergence healed only
   by the final finish events would never see its closing epoch there; the
   digest loop keeps watching until the control plane converges. *)
let close_reconvergence t =
  if t.cfg.control = Per_node && t.diverged_since >= 0 && views_identical t then begin
    t.reconverge_samples <-
      (Engine.now t.eng - t.diverged_since) :: t.reconverge_samples;
    t.diverged_since <- -1
  end

(* After a rate epoch executes, every allocation reflects all events known
   so far — including any detected failure: that is the reconvergence
   instant the recovery metrics report. *)
let stamp_reconvergence t =
  let now = Engine.now t.eng in
  List.iter
    (fun fr -> if fr.reconverge_ns < 0 && fr.detect_ns <= now then fr.reconverge_ns <- now)
    t.failures

(* One overload-controller tick per rate epoch: the watermark verdict
   drives the admission shed floor, and a clean epoch lets every pacer
   recover additively. *)
let overload_tick t =
  match t.admission with
  | None -> ()
  | Some adm ->
      let overloaded = Net.overloaded_links t.net > 0 in
      if overloaded then t.overload_epochs <- t.overload_epochs + 1;
      Congestion.Overload.Admission.note_epoch adm ~overloaded;
      if not overloaded then
        Array.iter Congestion.Overload.Pacer.note_clean_epoch t.pacers

let recompute t =
  overload_tick t;
  update_loss_ewma t;
  (match (t.cfg.control, t.galloc) with
  | Global_epoch, Some inc -> recompute_global t inc
  | Global_epoch, None -> assert false
  | Per_node, _ ->
      if t.epoch_dirty then begin
        t.epoch_dirty <- false;
        recompute_per_node t
      end);
  note_divergence t;
  stamp_reconvergence t

(* §3.4: periodic per-flow routing-protocol reselection. Long flows (alive
   for at least one reselection interval) are re-assigned RPS or VLB by the
   GA maximizing aggregate throughput; changed assignments are advertised
   in a single batched broadcast (up to 300 {flow, protocol} pairs per
   1500-byte packet, §3.4). *)
let reselect t interval =
  let now = Engine.now t.eng in
  let eligible = ref [] in
  Util.Tbl.iter_sorted ~cmp:Int.compare
    (fun _ st ->
      if (not st.done_sending) && now - st.started_ns >= interval then eligible := st :: !eligible)
    t.active;
  let sts = Array.of_list !eligible in
  if Array.length sts >= 2 then begin
    t.reselections <- t.reselections + 1;
    let selector =
      Genetic.Selector.make ~headroom:t.cfg.headroom t.rctx ~link_gbps:t.cfg.link_gbps
    in
    let flows = Array.map (fun st -> (st.src, st.dst)) sts in
    let init = Array.map (fun st -> st.proto) sts in
    (* Flows currently on protocols outside {RPS, VLB} seed as RPS. *)
    let init =
      Array.map (fun p -> if p = Routing.Vlb then Routing.Vlb else Routing.Rps) init
    in
    let current = Genetic.Selector.utility_gbps selector ~flows init in
    let assignment, best =
      Genetic.Selector.select ~pop_size:24 ~generations:6 selector t.rng ~flows ~init
    in
    (* §3.4: re-route only "if a significant improvement is possible" —
       near-ties would otherwise make flows flap between protocols. *)
    let changed = ref 0 in
    if (best : U.gbps :> float) > (current : U.gbps :> float) *. 1.01 then
      Array.iteri
        (fun i st ->
          if assignment.(i) <> st.proto then begin
            incr changed;
            st.proto <- assignment.(i);
            st.wf_links <- Routing.fractions t.rctx assignment.(i) ~src:st.src ~dst:st.dst;
            t.epoch_dirty <- true;
            match t.galloc with
            | Some inc when Congestion.Waterfill.Inc.mem inc ~id:st.idx ->
                Congestion.Waterfill.Inc.set_links inc ~id:st.idx st.wf_links
            | _ -> ()
          end)
        sts;
    t.flows_rerouted <- t.flows_rerouted + !changed;
    if !changed > 0 && t.cfg.real_broadcast then begin
      (* One batched route-change announcement: 16-byte header plus 5 bytes
         per {flow, protocol} pair, capped at an MTU. *)
      let bytes = min t.cfg.mtu (Wire.broadcast_size + (5 * !changed)) in
      let root = sts.(0).src in
      let bcast_id = -t.reselections in
      let tree = Broadcast.choose_tree t.bcast t.root_rng ~src:root in
      let seq, inc =
        if reliable t then
          ( Rbcast.send t.origins.(root) ~tree (bcast_id, bytes),
            Rbcast.incarnation t.origins.(root) )
        else (0, 0)
      in
      Net.send_bcast t.net ~seq ~inc ~root ~tree ~bcast_id ~bytes ()
    end
  end

let rec reselect_loop t interval () =
  reselect t interval;
  if Hashtbl.length t.active > 0 then Engine.after t.eng interval (reselect_loop t interval)
  else t.reselect_running <- false

(* -- anti-entropy digest loop --------------------------------------------- *)

(* Every alive source beacons [(tree, epoch, last_seq, state hash)] on each
   tree that has ever carried one of its events. A receiver missing the
   tail of a burst — even its very last packet, which no gap could reveal —
   sees [last_seq] ahead of its window and NACKs. A restarted source
   beacons tree 0 even before it sends anything: a node that lost the
   JOIN learns the new incarnation from the digest, re-keys, and repairs
   its view of the source through the hash check. *)
let digest_round t =
  Array.iteri
    (fun src o ->
      if Net.node_up t.net src then begin
        (* The digest has no spare payload word, so the epoch word carries
           the origin incarnation in its upper half; the anti-entropy epoch
           itself never nears 2^32 in a simulated run. Incarnation 0 leaves
           the word bit-identical to the pre-crash-restart format. *)
        let epoch =
          (Rbcast.incarnation o lsl 32) lor (Rbcast.bump_epoch o land 0xFFFFFFFF)
        in
        let hash = Rbcast.state_hash o in
        for tree = 0 to trees_per_source - 1 do
          let last = Rbcast.last_seq o ~tree in
          if last >= 0 || (tree = 0 && Rbcast.incarnation o > 0) then
            Net.send_digest_tree t.net ~root:src ~tree ~epoch ~last_seq:last ~hash
              ~bytes:Wire.digest_size
        done
      end)
    t.origins

(* The rejoin-completion criterion, and with every node the convergence
   test: [node] is sequence-caught-up with every reachable origin and
   (Per_node) believes exactly their live-flow sets. A window counts as
   caught up only past both the origin's last sequence and the highest
   one it heard of: after an unannounced restart the origin's sequence
   space is empty while the window still waits on the old one. *)
let node_caught_up t ~node =
  let ok = ref true in
  Array.iteri
    (fun root o ->
      if
        root <> node && Net.node_up t.net root
        && Topology.reachable t.topo root node
      then begin
        for tree = 0 to trees_per_source - 1 do
          let w = win t ~node ~root ~tree in
          if
            Rbcast.next_expected t.rx w <= Rbcast.last_seq o ~tree
            || not (Rbcast.caught_up t.rx w)
          then ok := false
        done;
        if
          t.cfg.control = Per_node
          && t.view_slices.(slice t ~node ~root) <> Rbcast.state_hash o
        then ok := false
      end)
    t.origins;
  !ok

(* Global-knowledge convergence test, used only to decide when the digest
   loop may stop (and by tests). *)
let control_converged t =
  let ok = ref true in
  Array.iteri
    (fun node _ ->
      if Net.node_up t.net node && not (node_caught_up t ~node) then ok := false)
    t.origins;
  !ok

(* §3.2 topology discovery: twice the time a broadcast packet needs to
   cross the rack diameter. *)
let detection_delay cfg topo =
  let tx =
    U.fill_time ~amount:(U.bits_of_bytes (U.bytes_of_int Wire.broadcast_size))
      ~rate:cfg.link_gbps
  in
  2 * Topology.diameter topo * (cfg.hop_latency_ns + int_of_float (ceil (U.to_float tx)))

(* Evaluated once per digest round: a pending rejoiner that has caught up
   gets its rejoin time stamped and leaves the pending set. *)
let check_rejoins t =
  if Hashtbl.length t.pending_rejoins > 0 then begin
    let now = Engine.now t.eng in
    Array.iter
      (fun node ->
        (* Before the restart's detection instant the overlay still shows
           the node detached, so every origin would be skipped as
           unreachable and the catch-up check would pass vacuously —
           stamping a zero-length rejoin before the JOIN even went out. *)
        if
          now >= Hashtbl.find t.pending_rejoins node + detection_delay t.cfg t.topo
          && Net.node_up t.net node && node_caught_up t ~node
        then begin
          let start = Hashtbl.find t.pending_rejoins node in
          Hashtbl.remove t.pending_rejoins node;
          Metrics.note_rejoin t.mtrcs ~node ~start ~finish:now
        end)
      (Util.Tbl.sorted_keys ~cmp:Int.compare t.pending_rejoins)
  end

let rec digest_loop t () =
  close_reconvergence t;
  check_rejoins t;
  if
    Hashtbl.length t.active > 0
    || Hashtbl.length t.pending_rejoins > 0
    || not (control_converged t)
  then begin
    digest_round t;
    Engine.after t.eng t.cfg.digest_interval_ns (digest_loop t)
  end
  else t.digest_running <- false

(* The periodic loop must not keep the event queue alive once the rack is
   idle; it stops when no flow remains and restarts when one starts. *)
let rec recompute_loop t () =
  recompute t;
  if Hashtbl.length t.active > 0 then
    Engine.after t.eng t.cfg.recompute_interval_ns (recompute_loop t)
  else t.loop_running <- false

let ensure_loop t =
  if not t.loop_running then begin
    t.loop_running <- true;
    Engine.after t.eng t.cfg.recompute_interval_ns (recompute_loop t)
  end;
  if reliable t && not t.digest_running then begin
    t.digest_running <- true;
    Engine.after t.eng t.cfg.digest_interval_ns (digest_loop t)
  end;
  match t.cfg.reselect_interval_ns with
  | Some interval when not t.reselect_running ->
      t.reselect_running <- true;
      Engine.after t.eng interval (reselect_loop t interval)
  | _ -> ()

(* -- fault injection and recovery (§3.2) ----------------------------------- *)

(* Retransmissions of one packet before its flow is aborted. *)
let rtx_max_retries = 30

let rcfg cfg =
  {
    Reliability.packets = 1;
    rtx_timeout_ns = cfg.rtx_timeout_ns;
    max_retries = rtx_max_retries;
    rtx_backoff = cfg.rtx_backoff;
    rtx_cap_ns = cfg.rtx_cap_ns;
  }

let flow_complete t idx = Metrics.complete t.mtrcs (Metrics.find t.mtrcs idx)

(* Dead-endpoint flows cannot recover; they are dropped from the rack state
   entirely (active set, allocator, per-node views) and reported. *)
let abort_flow t st =
  if not st.failed then begin
    st.failed <- true;
    t.aborted <- st.idx :: t.aborted;
    st.inject_gen <- st.inject_gen + 1;
    flow_done_sending t st;
    Hashtbl.remove t.active st.idx;
    Hashtbl.remove t.on_complete st.idx;
    Array.iteri (fun node _ -> view_mark t ~node st.idx ~live:false) t.views;
    (* The origin's advertised live set must drop the flow too, or every
       digest hash would disagree with the views forever. *)
    if reliable t then Rbcast.mark_dead t.origins.(st.src) st.idx;
    t.epoch_dirty <- true;
    if Hashtbl.length t.active = 0 then stamp_reconvergence t
  end

(* The simulator plays the receiver's ARQ with global knowledge: a lost Data
   packet re-arms a per-sequence retransmission timer under the
   {!Reliability} backoff discipline and is re-sent — same sequence number,
   freshly sampled path — once it fires. Until the failure is detected the
   fresh path may cross the same dead cable; the backoff rides out exactly
   that window. *)
let rec arm_retransmit t st ~seq ~bytes ~last =
  let n = Option.value ~default:0 (Hashtbl.find_opt st.rtx seq) in
  if n >= rtx_max_retries then abort_flow t st
  else begin
    Hashtbl.replace st.rtx seq (n + 1);
    Engine.after t.eng
      (Reliability.timeout_ns t.rel_cfg ~attempt:n)
      (fun () -> retransmit t st ~seq ~bytes ~last)
  end

and retransmit t st ~seq ~bytes ~last =
  if (not st.failed) && (not (flow_complete t st.idx)) && Net.node_up t.net st.src then begin
    if Topology.reachable t.topo st.src st.dst then begin
      t.retransmissions <- t.retransmissions + 1;
      t.injected_payload <- t.injected_payload + (bytes - header);
      let path = Routing.sample_path t.rctx t.rng st.proto ~src:st.src ~dst:st.dst in
      let route = Net.intern_route t.net path in
      Net.send_data t.net ~flow:st.idx ~seq ~last ~bytes ~route;
      Net.release_route t.net route
    end
    else
      (* Partitioned for now: wait out another timeout (the detection
         handler aborts the flow if the endpoint is truly gone). *)
      arm_retransmit t st ~seq ~bytes ~last
  end

let handle_loss t pkt =
  if Net.kind t.net pkt = Net.code_data then begin
    let flow = Net.data_flow t.net pkt in
    match Hashtbl.find_opt t.all_states flow with
    | Some st when (not st.failed) && not (flow_complete t flow) ->
        arm_retransmit t st ~seq:(Net.data_seq t.net pkt)
          ~bytes:(Net.bytes t.net pkt) ~last:(Net.data_last t.net pkt)
    | _ -> ()
  end

(* A congested receiver paces senders down: when a delivered data packet's
   final-hop link is above the high watermark, the receiver returns one
   PAUSE (at most one per [pause_interval_ns] per receiver) to the
   packet's source, covering [pause_class] and every class below it.
   Higher classes are never paused — their latency is what the
   backpressure is protecting. *)
let pause_interval_ns = 50_000
let pause_class = 1

let maybe_send_pause t pkt ~flow =
  if t.overload_on && Net.overloaded_links t.net > 0 then begin
    let dst = Net.route_last t.net pkt in
    let now = Engine.now t.eng in
    if now - t.last_pause.(dst) >= pause_interval_ns then begin
      let len = Net.route_length t.net pkt in
      let l = Topology.find_link_id t.topo (Net.route_at t.net pkt (len - 2)) dst in
      if l >= 0 && Net.link_overloaded t.net ~link_id:l then
        match Hashtbl.find_opt t.all_states flow with
        | Some st
          when st.priority >= pause_class
               && st.src <> dst && Net.node_up t.net st.src
               && Topology.reachable t.topo dst st.src ->
            t.last_pause.(dst) <- now;
            t.pauses_sent <- t.pauses_sent + 1;
            let route =
              Net.intern_route t.net
                (Routing.ecmp_path t.rctx ~flow_id:(dst + (131 * st.src))
                   ~src:dst ~dst:st.src)
            in
            Net.send_pause t.net ~node:st.src ~cls:pause_class ~level:1
              ~window_kbps:0 ~bytes:Wire.pause_size ~route;
            Net.release_route t.net route
        | _ -> ()
    end
  end

(* Runs one detection delay after the physical event: flips the
   control-plane overlay, repairs broadcast trees, drops flows whose
   endpoint died, and re-paths + re-announces the survivors (§3.2: every
   node re-broadcasts its ongoing flows after a discovery event). The next
   rate epoch then stamps reconvergence. *)
let detect t fr apply_overlay =
  apply_overlay ();
  fr.repaired <- Broadcast.repair_all t.bcast;
  t.bcast_target <- Topology.alive_vertex_count t.topo - 1;
  (* [t.active] is keyed by flow idx, so this is the old sort-by-idx. *)
  let sts = Array.to_list (Util.Tbl.sorted_values ~cmp:Int.compare t.active) in
  List.iter
    (fun st ->
      if not (Topology.reachable t.topo st.src st.dst) then begin
        abort_flow t st;
        fr.aborted <- fr.aborted + 1
      end
      else begin
        st.wf_links <- Routing.fractions t.rctx st.proto ~src:st.src ~dst:st.dst;
        t.epoch_dirty <- true;
        (match t.galloc with
        | Some inc when Congestion.Waterfill.Inc.mem inc ~id:st.idx ->
            Congestion.Waterfill.Inc.set_links inc ~id:st.idx st.wf_links
        | _ -> ());
        if not st.done_sending then send_flow_broadcast t st Wire.Flow_start
      end)
    sts;
  if Hashtbl.length t.active = 0 then fr.reconverge_ns <- Engine.now t.eng
  else ensure_loop t

let schedule_event t ~ns kind phys overlay =
  Engine.at t.eng ns (fun () ->
      phys ();
      let fr =
        {
          kind;
          fail_ns = ns;
          detect_ns = ns + detection_delay t.cfg t.topo;
          reconverge_ns = -1;
          aborted = 0;
          repaired = 0;
        }
      in
      t.failures <- fr :: t.failures;
      Engine.after t.eng (detection_delay t.cfg t.topo) (fun () ->
          detect t fr overlay;
          (* The rack may have gone quiet before this event was detected
             (e.g. a partition healing after every flow completed); the
             periodic loops must come back so anti-entropy can repair the
             views of whoever was cut off. *)
          ensure_loop t))

let fail_link_at t ~ns u v =
  schedule_event t ~ns "link"
    (fun () -> Net.fail_link t.net u v)
    (fun () -> Topology.fail_link t.topo u v)

let fail_node_at t ~ns u =
  schedule_event t ~ns "node"
    (fun () -> Net.fail_node t.net u)
    (fun () -> Topology.fail_node t.topo u)

let restore_link_at t ~ns u v =
  schedule_event t ~ns "restore-link"
    (fun () -> Net.restore_link t.net u v)
    (fun () -> Topology.restore_link t.topo u v)

let restore_node_at t ~ns u =
  schedule_event t ~ns "restore-node"
    (fun () -> Net.restore_node t.net u)
    (fun () -> Topology.restore_node t.topo u)

(* -- crash-restart (robustness) -------------------------------------------- *)

(* A crash is a state-losing node failure: besides the physical down-state,
   the node's receive windows, traffic-matrix view and per-flow sender soft
   state (pacing timers, retransmission history) are destroyed — unlike
   {!fail_node_at}, which models an outage that preserves state. *)
let crash_node_at t ~ns u =
  schedule_event t ~ns "crash"
    (fun () ->
      Net.fail_node t.net u;
      if reliable t then Rbcast.wipe_receiver t.rx ~receiver:u;
      if t.cfg.control = Per_node then view_reset t ~node:u;
      Util.Tbl.iter_sorted ~cmp:Int.compare
        (fun _ st ->
          if st.src = u then begin
            (* Invalidate the pacing timer and forget retransmission
               attempts: nothing of the sender survives the crash. *)
            st.inject_gen <- st.inject_gen + 1;
            Hashtbl.reset st.rtx
          end)
        t.active)
    (fun () -> Topology.fail_node t.topo u)

let send_snapshot_reqs t u =
  if reliable t then
    Array.iteri
      (fun root _ ->
        if
          root <> u && Net.node_up t.net root
          && Topology.reachable t.topo u root
        then begin
          (* An empty-range NACK is the wire-level snapshot request
             ([Wire.snapshot_req]): the origin answers with a full-state
             sync — the rejoin catch-up reuses the anti-entropy repair
             path wholesale. *)
          t.sync_requests <- t.sync_requests + 1;
          let route =
            Net.intern_route t.net
              (Routing.ecmp_path t.rctx ~flow_id:(root + (131 * u)) ~src:u
                 ~dst:root)
          in
          Net.send_nack t.net ~root ~tree:0 ~from_seq:0 ~to_seq:(-1)
            ~requester:u ~bytes:Wire.snapshot_req_size ~route;
          Net.release_route t.net route
        end)
      t.origins

(* Announce the rejoin: a JOIN broadcast carrying the fresh incarnation
   (receivers wipe their windows for this root and drop its pre-crash
   flows), plus one snapshot request per alive origin. Re-announced every
   [rejoin_retry_ns] until the node has caught up, so a lost JOIN or
   snapshot cannot strand the rejoin. *)
let rejoin_retry_ns = 500_000

let rec announce_join t u =
  if Net.node_up t.net u && Hashtbl.mem t.pending_rejoins u then begin
    t.joins_sent <- t.joins_sent + 1;
    if t.cfg.real_broadcast then begin
      let inc = if reliable t then Rbcast.incarnation t.origins.(u) else 0 in
      Net.send_bcast t.net ~inc ~root:u ~tree:0 ~bcast_id:bcast_id_join
        ~bytes:Wire.join_size ()
    end;
    send_snapshot_reqs t u;
    if reliable t then
      Engine.after t.eng rejoin_retry_ns (fun () -> announce_join t u)
    else begin
      (* Without the reliable machinery there is no catch-up to await: the
         rejoin completes at the announcement. *)
      let start = Hashtbl.find t.pending_rejoins u in
      Hashtbl.remove t.pending_rejoins u;
      Metrics.note_rejoin t.mtrcs ~node:u ~start ~finish:(Engine.now t.eng)
    end
  end

(* The node comes back {e cold}: fresh origin incarnation, no receive
   windows, no view — then runs the rejoin protocol. The JOIN waits for the
   restore's detection instant, when the broadcast trees have been repaired
   around the revived node and the routing overlay can reach it again. *)
let restart_node_at t ~ns u =
  Engine.at t.eng ns (fun () ->
      Net.restore_node t.net u;
      if reliable t then begin
        Rbcast.wipe_receiver t.rx ~receiver:u;
        ignore (Rbcast.restart t.origins.(u))
      end;
      if t.cfg.control = Per_node then view_reset t ~node:u;
      Hashtbl.replace t.pending_rejoins u ns;
      let fr =
        {
          kind = "restart";
          fail_ns = ns;
          detect_ns = ns + detection_delay t.cfg t.topo;
          reconverge_ns = -1;
          aborted = 0;
          repaired = 0;
        }
      in
      t.failures <- fr :: t.failures;
      Engine.after t.eng (detection_delay t.cfg t.topo) (fun () ->
          detect t fr (fun () -> Topology.restore_node t.topo u);
          announce_join t u;
          ensure_loop t))

(* -- gray failures: flaky links and the health estimator ------------------- *)

let flaky_seed seed = seed + 211

(* Extra latency of a spiked hop on a flaky link. *)
let flaky_spike_ns = 2_000

(* The health estimator ticks every [health_interval_ns], folding each
   interval's loss rate into a per-cable EWMA with weight [health_alpha].
   An estimate above [quarantine_loss_threshold] quarantines the cable;
   [probation_ns] is the dwell in quarantine before probation, and in
   probation before the recover/re-quarantine verdict. *)
let health_interval_ns = 50_000
let health_alpha = 0.3
let quarantine_loss_threshold = 0.02
let probation_ns = 500_000

let get_health t =
  match t.health with
  | Some h -> h
  | None ->
      let n = Topology.link_count t.topo in
      let h =
        {
          ewma = Array.make n 0.0;
          prev_tx = Array.make n 0;
          prev_lost = Array.make n 0;
          since = Array.make n 0;
        }
      in
      t.health <- Some h;
      h

(* One estimator tick: fold the last interval's per-cable flaky-loss rate
   into an EWMA and drive the {!Routing} quarantine state machine. An
   interval without samples decays the estimate, so an unflagged or idle
   cable drifts back towards health instead of pinning its last bad
   reading forever. Returns whether any cable is still demoted. *)
let health_tick t h =
  let now = Engine.now t.eng in
  let demoted = ref false in
  let nl = Topology.link_count t.topo in
  for l = 0 to nl - 1 do
    let u = Topology.link_src t.topo l and v = Topology.link_dst t.topo l in
    if u < v then begin
      let tx, lost = Net.flaky_link_stats t.net u v in
      let dtx = tx - h.prev_tx.(l) and dlost = lost - h.prev_lost.(l) in
      h.prev_tx.(l) <- tx;
      h.prev_lost.(l) <- lost;
      if dtx > 0 then
        h.ewma.(l) <-
          (health_alpha *. (float_of_int dlost /. float_of_int dtx))
          +. ((1.0 -. health_alpha) *. h.ewma.(l))
      else h.ewma.(l) <- (1.0 -. health_alpha) *. h.ewma.(l);
      (match Routing.link_health t.rctx u v with
      | Routing.Healthy ->
          if h.ewma.(l) > quarantine_loss_threshold then begin
            Routing.note_suspect t.rctx u v;
            t.quarantines <- t.quarantines + 1;
            h.since.(l) <- now
          end
      | Routing.Quarantined ->
          if now - h.since.(l) >= probation_ns then begin
            Routing.note_probation t.rctx u v;
            t.probations <- t.probations + 1;
            h.since.(l) <- now
          end
      | Routing.Probation ->
          if now - h.since.(l) >= probation_ns then begin
            (* The probation trickle kept sampling the cable; the verdict
               is whatever the estimator saw of it. *)
            if h.ewma.(l) > quarantine_loss_threshold then begin
              Routing.note_suspect t.rctx u v;
              t.quarantines <- t.quarantines + 1
            end
            else begin
              Routing.note_recovered t.rctx u v;
              t.recoveries <- t.recoveries + 1
            end;
            h.since.(l) <- now
          end);
      match Routing.link_health t.rctx u v with
      | Routing.Healthy -> ()
      | Routing.Probation | Routing.Quarantined -> demoted := true
    end
  done;
  !demoted

let rec health_loop t () =
  match t.health with
  | None -> t.health_running <- false
  | Some h ->
      let demoted = health_tick t h in
      if demoted || Hashtbl.length t.active > 0 then
        Engine.after t.eng health_interval_ns (health_loop t)
      else t.health_running <- false

(* Started when the first flaky link is flagged — a clean run never runs a
   single tick, so its event stream is untouched. *)
let ensure_health_loop t =
  ignore (get_health t);
  if not t.health_running then begin
    t.health_running <- true;
    Engine.after t.eng health_interval_ns (health_loop t)
  end

let flaky_link_at t ~ns u v ~loss ~spike =
  Engine.at t.eng ns (fun () ->
      Net.set_flaky_link t.net ~seed:(flaky_seed t.cfg.seed) ~spike_ns:flaky_spike_ns u v
        ~loss ~spike;
      ensure_health_loop t)

let unflaky_link_at t ~ns u v =
  Engine.at t.eng ns (fun () -> Net.clear_flaky_link t.net u v)

(* -- construction ---------------------------------------------------------- *)

let chaos_seed seed = seed + 101

let create cfg topo =
  if cfg.mtu <= header then invalid_arg "R2c2_sim: mtu must exceed the header size";
  if cfg.control = Per_node && not cfg.real_broadcast then
    invalid_arg "R2c2_sim: Per_node control builds its views from real broadcasts";
  if cfg.control = Per_node && U.compare_q cfg.class_reserve U.zero > 0 then
    invalid_arg "R2c2_sim: Per_node control does not apply class_reserve";
  if cfg.reliable_bcast && not cfg.real_broadcast then
    invalid_arg "R2c2_sim: reliable_bcast needs real broadcasts to protect";
  if cfg.recompute_interval_ns <= 0 then
    invalid_arg "R2c2_sim: recompute_interval_ns must be positive";
  (match cfg.reselect_interval_ns with
  | Some n when n <= 0 -> invalid_arg "R2c2_sim: reselect_interval_ns must be positive"
  | _ -> ());
  if cfg.reliable_bcast && cfg.digest_interval_ns <= 0 then
    invalid_arg "R2c2_sim: digest_interval_ns must be positive";
  let eng = Engine.create ~backend:cfg.engine_backend () in
  let net =
    Net.create eng topo ~queue_capacity:cfg.queue_capacity ~link_gbps:cfg.link_gbps
      ~hop_latency_ns:cfg.hop_latency_ns ()
  in
  let chaos_on =
    U.compare_q cfg.control_loss U.zero > 0
    || U.compare_q cfg.control_reorder U.zero > 0
    || U.compare_q cfg.control_dup U.zero > 0
  in
  if chaos_on then
    Net.set_control_chaos net ~seed:(chaos_seed cfg.seed) ~loss:cfg.control_loss
      ~reorder:cfg.control_reorder ~dup:cfg.control_dup;
  let bcast = Broadcast.make ~trees_per_source topo in
  Net.set_broadcast net bcast;
  let nverts = Topology.vertex_count topo in
  let cap = U.byte_rate_of_gbps cfg.link_gbps in
  let capacities = Array.make (Topology.link_count topo) cap in
  let t =
    {
      cfg;
      rel_cfg = rcfg cfg;
      topo;
      eng;
      net;
      bcast;
      rctx = Routing.make topo;
      rng = Util.Rng.create cfg.seed;
      root_rng = Util.Rng.create (cfg.seed + 7);
      mtrcs = Metrics.create ();
      cap_bytes_ns = U.to_float cap;
      capacities;
      (* Pre-sized to measured steady-state populations (permutation
         workload, one flow per host): [active]/[all_states] and each
         node's view hold one entry per host (27 on the 3x3x3 test torus,
         512 on the 8x8x8 bench torus); [bcast_seen] peaks at two ids per
         flow (start + finish). Sizing from [nverts] keeps the packet-path
         lookups resize-free at every scale. *)
      active = Hashtbl.create (max 256 nverts);
      all_states = Hashtbl.create (max 256 nverts);
      views =
        (if cfg.control = Per_node then
           Array.init nverts (fun _ -> Hashtbl.create (max 32 nverts))
         else [||]);
      view_totals = Array.make (if cfg.control = Per_node then nverts else 0) 0;
      view_slices =
        Array.make
          (if cfg.control = Per_node && cfg.reliable_bcast then nverts * nverts else 0)
          0;
      bcast_seen = Hashtbl.create (max 256 (2 * nverts));
      on_complete = Hashtbl.create 16;  (* one callback per test waiter; measured <= 16 *)
      next_id = 0;
      recomputes = 0;
      rate_updates = [];
      rate_update_count = 0;
      loop_running = false;
      reselections = 0;
      flows_rerouted = 0;
      reselect_running = false;
      galloc =
        (if cfg.control = Global_epoch then
           Some (Congestion.Waterfill.Inc.create ~headroom:cfg.headroom ~capacities ())
         else None);
      epoch_dirty = false;
      bcast_target = nverts - 1;
      injected_payload = 0;
      delivered_payload = 0;
      dropped_payload = 0;
      blackholed_payload = 0;
      retransmissions = 0;
      aborted = [];
      failures = [];
      origins =
        (if cfg.reliable_bcast && cfg.real_broadcast then
           Array.init nverts (fun _ ->
               Rbcast.origin ~log_cap:cfg.bcast_log_cap ~trees:trees_per_source ())
         else [||]);
      rx =
        Rbcast.table
          ~origins:(if cfg.reliable_bcast && cfg.real_broadcast then nverts else 0)
          ~trees:trees_per_source ~receivers:nverts;
      chaos_on;
      digest_running = false;
      nacks_sent = 0;
      event_retransmits = 0;
      sync_requests = 0;
      syncs_sent = 0;
      sync_bytes = 0;
      divergence_epochs = 0;
      diverged_since = -1;
      reconverge_samples = [];
      loss_headroom = Congestion.Overload.Headroom.create ~base:cfg.headroom;
      prev_ctrl_hops = 0;
      prev_ctrl_lost = 0;
      pending_rejoins = Hashtbl.create 4;
      joins_sent = 0;
      health = None;
      health_running = false;
      quarantines = 0;
      probations = 0;
      recoveries = 0;
      overload_on = cfg.overload_control;
      admission =
        (if cfg.overload_control then
           Some
             (Congestion.Overload.Admission.create ~max_priority:(Metrics.max_class - 1) ())
         else None);
      pacers =
        (if cfg.overload_control then
           Array.init nverts (fun _ -> Congestion.Overload.Pacer.create ())
         else [||]);
      pause_cls = (if cfg.overload_control then Array.make nverts max_int else [||]);
      last_pause =
        (if cfg.overload_control then Array.make nverts (-pause_interval_ns)
         else [||]);
      shed_flows = 0;
      shed_payload = 0;
      pauses_sent = 0;
      pauses_received = 0;
      overload_epochs = 0;
    }
  in
  if cfg.queue_high_watermark < max_int then
    Net.set_queue_watermarks net ~high:cfg.queue_high_watermark
      ~low:cfg.queue_low_watermark;
  List.iter (fun (priority, bound_ns) -> Metrics.set_slo t.mtrcs ~priority ~bound_ns) cfg.slos;
  (if U.compare_q cfg.class_reserve U.zero > 0 then
     match t.galloc with
     | Some inc ->
         Congestion.Waterfill.Inc.set_class_reserve inc ~priority:cfg.reserve_priority
           ~reserve:cfg.class_reserve
     | None -> ());
  (* Broadcast copies arriving anywhere bump the receipt counter; once all
     other vertices have a copy, the flow is globally visible. Per-node
     views learn flow starts/finishes from the same deliveries. In reliable
     mode every event first passes the (source, tree) receive window:
     duplicates are absorbed, reordered arrivals buffered, and a gap arms
     the NACK timer. *)
  Net.on_bcast_deliver net (fun pkt ~node ->
      let k = Net.kind net pkt in
      if k = Net.code_bcast then begin
        let bcast_id = Net.bcast_id net pkt in
        if bcast_id = bcast_id_join then
          handle_join t ~node ~joiner:(Net.bcast_root net pkt)
            ~inc:(Net.bcast_inc net pkt)
        else if reliable t then begin
          let root = Net.bcast_root net pkt and tree = Net.bcast_tree net pkt in
          let w = win t ~node ~root ~tree in
          if accept_inc t w ~inc:(Net.bcast_inc net pkt) then begin
            match Rbcast.receive t.rx w ~seq:(Net.bcast_seq net pkt) bcast_id with
            | Rbcast.Deliver ->
                apply_bcast_event t ~node bcast_id;
                drain_window t ~node w
            | Rbcast.Duplicate -> ()
            | Rbcast.Buffered -> schedule_nack t ~node ~root ~tree w
          end
        end
        else apply_bcast_event t ~node bcast_id
      end
      else if k = Net.code_digest then begin
        let root = Net.digest_root net pkt and tree = Net.digest_tree net pkt in
        let last_seq = Net.digest_last_seq net pkt in
        if reliable t then begin
            let w = win t ~node ~root ~tree in
            if accept_inc t w ~inc:(Net.digest_epoch net pkt lsr 32) then begin
            Rbcast.advertise t.rx w ~last:last_seq;
            let next = Rbcast.next_expected t.rx w in
            if next <= last_seq then schedule_nack t ~node ~root ~tree w
            else if cfg.control = Per_node && next = last_seq + 1 then begin
              (* Sequence-caught-up on every tree of this origin, yet the
                 believed live-flow set hashes differently: genuine
                 divergence (e.g. a repair evicted from the replay log) —
                 ask for a full-state sync. If some other tree still has a
                 gap, its own digest will trigger the cheaper NACK path
                 first. *)
              let all_caught_up = ref true in
              for tr = 0 to trees_per_source - 1 do
                if not (Rbcast.caught_up t.rx (win t ~node ~root ~tree:tr)) then
                  all_caught_up := false
              done;
              if
                !all_caught_up
                && t.view_slices.(slice t ~node ~root) <> Net.digest_hash net pkt
              then send_nack t ~node ~root ~tree ~from_seq:0 ~to_seq:(-1)
            end
            end
          end
      end);
  (* Lost Data packets — queue tail drops and failure blackholes alike —
     feed the retransmission machinery; payload losses are bucketed for the
     byte-conservation accounting. *)
  Net.on_drop net (fun pkt ->
      if Net.kind net pkt = Net.code_data then
        t.dropped_payload <- t.dropped_payload + (Net.bytes net pkt - header);
      handle_loss t pkt);
  Net.on_blackhole net (fun pkt ->
      if Net.kind net pkt = Net.code_data then
        t.blackholed_payload <- t.blackholed_payload + (Net.bytes net pkt - header);
      handle_loss t pkt);
  Net.on_deliver net (fun pkt ->
      let k = Net.kind net pkt in
      if k = Net.code_data then begin
          let flow = Net.data_flow net pkt and seq = Net.data_seq net pkt in
          let payload = Net.bytes net pkt - header in
          t.delivered_payload <- t.delivered_payload + payload;
          maybe_send_pause t pkt ~flow;
          let finished =
            Metrics.record_delivery t.mtrcs ~id:flow ~seq ~payload ~now:(Engine.now eng)
          in
          if finished then begin
            (match Hashtbl.find_opt t.active flow with
            | Some st ->
                Hashtbl.remove t.active flow;
                t.epoch_dirty <- true;
                (* With nothing left to allocate, a detected failure is
                   trivially reconverged — the periodic loop is about to
                   stop and would never stamp it. *)
                if Hashtbl.length t.active = 0 then stamp_reconvergence t;
                (* The finish broadcast never reaches its own root, but the
                   sender knows its flow ended. *)
                if cfg.control = Per_node then view_mark t ~node:st.src flow ~live:false;
                send_flow_broadcast t st Wire.Flow_finish
            | None -> ());
            match Hashtbl.find_opt t.on_complete flow with
            | Some k ->
                Hashtbl.remove t.on_complete flow;
                k flow
            | None -> ()
          end
      end
      else if k = Net.code_nack then begin
          (* A NACK reached the origin: replay the logged packets onto the
             same tree (duplicates at healthy nodes are absorbed by their
             windows), or fall back to a full-state sync when the range is
             empty (a sync request) or evicted from the log. *)
          let root = Net.nack_root net pkt and tree = Net.nack_tree net pkt in
          let from_seq = Net.nack_from net pkt and to_seq = Net.nack_to net pkt in
          let requester = Net.nack_requester net pkt in
          if reliable t then begin
            if to_seq < from_seq then send_sync t ~root ~requester
            else begin
              let o = t.origins.(root) in
              let evicted = ref false in
              (* Bound the replay burst; the requester re-NACKs for the
                 rest if the range was truly enormous. *)
              for s = from_seq to min to_seq (from_seq + 255) do
                match Rbcast.replay o ~tree ~seq:s with
                | Some (bcast_id, bytes) ->
                    t.event_retransmits <- t.event_retransmits + 1;
                    Net.send_bcast t.net ~seq:s ~inc:(Rbcast.incarnation o) ~root
                      ~tree ~bcast_id ~bytes ()
                | None -> evicted := true
              done;
              if !evicted then send_sync t ~root ~requester
            end
          end
      end
      else if k = Net.code_sync then begin
          if reliable t then begin
            let node = Net.route_last net pkt in
            apply_sync t ~node ~root:(Net.sync_root net pkt)
              ~entries:(Net.sync_entries net pkt)
              ~last_seqs:(Net.sync_last_seqs net pkt)
          end
      end
      else if k = Net.code_pause then begin
          if t.overload_on then begin
            let node = Net.pause_node net pkt in
            t.pauses_received <- t.pauses_received + 1;
            t.pause_cls.(node) <- Net.pause_class net pkt;
            Congestion.Overload.Pacer.note_pause t.pacers.(node)
              ~level:(Net.pause_level net pkt)
          end
      end);
  t

let start_flow ?(weight = 1) ?(priority = 0) ?(protocol = Routing.Rps) ?demand_gbps ?on_complete
    t ~src ~dst ~size =
  if src = dst then invalid_arg "R2c2_sim: flow with src = dst";
  if size <= 0 then invalid_arg "R2c2_sim: non-positive flow size";
  let shed =
    match t.admission with
    | Some adm -> not (Congestion.Overload.Admission.admits adm ~priority)
    | None -> false
  in
  if shed then begin
    (* Refused at admission: the flow consumes an id but injects nothing —
       its would-be payload is accounted to the shed counters, so the
       byte-conservation ledger still balances exactly. *)
    let idx = t.next_id in
    t.next_id <- idx + 1;
    t.shed_flows <- t.shed_flows + 1;
    t.shed_payload <- t.shed_payload + size;
    idx
  end
  else begin
  let idx = t.next_id in
  t.next_id <- idx + 1;
  Metrics.add_flow ~priority t.mtrcs ~id:idx ~src ~dst ~size ~arrival_ns:(Engine.now t.eng);
  let st =
    {
      idx;
      src;
      dst;
      proto = protocol;
      weight = float_of_int (max 1 weight);
      priority;
      wf_links = Routing.fractions t.rctx protocol ~src ~dst;
      (* Gbps from the caller, wire bytes/ns internally. *)
      demand = Option.map U.byte_rate_of_gbps demand_gbps;
      started_ns = Engine.now t.eng;
      remaining = size;
      seq = 0;
      (* New flows transmit immediately at line rate (§3.3.2): the headroom
         left by the rate computation absorbs them until the next epoch
         picks them up, and flows shorter than one epoch are never
         rate-limited at all. *)
      rate = t.cap_bytes_ns;
      last_inject = Engine.now t.eng;
      inject_gen = 0;
      visible = false;
      done_sending = false;
      rtx = Hashtbl.create 8;
      (* measured: empty on loss-free runs; only tail-drop/failure
         retransmission timers land here, a handful per flow *)
      failed = false;
      btree = -1;
    }
  in
  Hashtbl.replace t.active idx st;
  Hashtbl.replace t.all_states idx st;
  t.epoch_dirty <- true;
  (match on_complete with Some k -> Hashtbl.replace t.on_complete idx k | None -> ());
  if t.cfg.control = Per_node then view_mark t ~node:src idx ~live:true;
  send_flow_broadcast t st Wire.Flow_start;
  ensure_loop t;
  inject t st;
  idx
  end

let run_engine ?until_ns t = Engine.run ?until:until_ns t.eng

(* -- reliability accessors (tests, benches) -------------------------------- *)

let set_control_chaos_at t ~ns ~loss ~reorder ~dup =
  Engine.at t.eng ns (fun () ->
      Net.set_control_chaos t.net ~seed:(chaos_seed t.cfg.seed) ~loss ~reorder ~dup)

let loss_ewma t = Congestion.Overload.Headroom.loss_ewma t.loss_headroom
let effective_headroom t = Congestion.Overload.Headroom.effective t.loss_headroom

let shed_floor t =
  match t.admission with
  | Some adm -> Congestion.Overload.Admission.shed_floor adm
  | None -> Metrics.max_class

let pacer_scale t ~node =
  if Array.length t.pacers = 0 then 1.0
  else Congestion.Overload.Pacer.scale t.pacers.(node)

let node_view_ids t ~node =
  if t.cfg.control <> Per_node then
    invalid_arg "R2c2_sim.node_view_ids: Per_node control only";
  Array.to_list (Util.Tbl.sorted_keys ~cmp:Int.compare t.views.(node))

(* The full rate vector a node computes in its rate epoch — every flow it
   believes exists ([believed_ids]), not just its own. Two nodes with
   identical views produce identical vectors (the waterfill is
   deterministic), which is exactly what the reconvergence tests assert. *)
let node_allocations t ~node =
  if t.cfg.control <> Per_node then
    invalid_arg "R2c2_sim.node_allocations: Per_node control only";
  let flows, rates = allocate_ids t (believed_ids t ~node ~own:(sending_by_node t).(node)) in
  Array.mapi (fun i st -> (st.idx, rates.(i))) flows

let dup_events_absorbed t = Rbcast.total_duplicates t.rx

let results t =
  {
    metrics = t.mtrcs;
    max_queue = Net.max_queue_bytes t.net;
    drops = Net.drops t.net;
    data_wire_bytes = Net.data_bytes_on_wire t.net;
    control_wire_bytes = Net.control_bytes_on_wire t.net;
    recomputes = t.recomputes;
    rate_updates = List.rev t.rate_updates;
    reselections = t.reselections;
    flows_rerouted = t.flows_rerouted;
    blackholes = Net.blackholes t.net;
    blackholed_bytes = Net.blackholed_bytes t.net;
    injected_payload = t.injected_payload;
    delivered_payload = t.delivered_payload;
    dropped_payload = t.dropped_payload;
    blackholed_payload = t.blackholed_payload;
    retransmissions = t.retransmissions;
    aborted_flows = List.rev t.aborted;
    failures = List.rev t.failures;
    tree_repairs = Broadcast.repairs t.bcast;
    tree_repair_bytes = Broadcast.repair_bytes t.bcast;
    ctrl_lost = Net.ctrl_lost t.net;
    ctrl_lost_bytes = Net.ctrl_lost_bytes t.net;
    ctrl_reordered = Net.ctrl_reordered t.net;
    ctrl_dupped = Net.ctrl_dupped t.net;
    blackholed_data_bytes = Net.blackholed_data_bytes t.net;
    blackholed_ctrl_bytes = Net.blackholed_ctrl_bytes t.net;
    nacks_sent = t.nacks_sent;
    event_retransmits = t.event_retransmits;
    sync_requests = t.sync_requests;
    syncs_sent = t.syncs_sent;
    sync_bytes = t.sync_bytes;
    dup_events_absorbed = dup_events_absorbed t;
    divergence_epochs = t.divergence_epochs;
    reconverge_samples = List.rev t.reconverge_samples;
    terminal_diverged = diverged_nodes t;
    loss_ewma = loss_ewma t;
    effective_headroom = effective_headroom t;
    flaky_lost = Net.flaky_lost t.net;
    flaky_lost_bytes = Net.flaky_lost_bytes t.net;
    quarantines = t.quarantines;
    probations = t.probations;
    recoveries = t.recoveries;
    joins_sent = t.joins_sent;
    rejoins = Metrics.rejoin_samples t.mtrcs;
    rejoins_pending = Hashtbl.length t.pending_rejoins;
    shed_flows = t.shed_flows;
    shed_payload = t.shed_payload;
    pauses_sent = t.pauses_sent;
    pauses_received = t.pauses_received;
    overload_epochs = t.overload_epochs;
    overloaded_links = Net.overloaded_links t.net;
  }

let link_health t u v = Routing.link_health t.rctx u v
let net t = t.net

let run ?(protocol_of = fun _ _ -> Routing.Rps) ?(demand_of = fun _ _ -> None) ?until_ns cfg
    topo specs =
  let t = create cfg topo in
  List.iteri
    (fun i spec ->
      let open Workload.Flowgen in
      Engine.at t.eng spec.arrival_ns (fun () ->
          let id =
            start_flow ~weight:spec.weight ~priority:spec.priority
              ~protocol:(protocol_of i spec)
              ?demand_gbps:(demand_of i spec) t ~src:spec.src ~dst:spec.dst ~size:spec.size
          in
          (* Batch flow ids must equal list positions. *)
          assert (id = i)))
    specs;
  run_engine ?until_ns t;
  results t

