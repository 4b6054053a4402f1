module U = Util.Units

type config = {
  link_gbps : U.gbps;
  headroom : U.fraction;
  trees_per_source : int;
  default_protocol : Routing.protocol;
  selection_choices : Routing.protocol array;
}

let default_config =
  {
    link_gbps = U.gbps 10.0;
    headroom = U.fraction 0.05;
    trees_per_source = 4;
    default_protocol = Routing.Rps;
    selection_choices = [| Routing.Rps; Routing.Vlb |];
  }

(* Priority classes the admission machinery distinguishes: one above the
   deadline bands plus the scavenger class, matching the simulator's eight
   tracked SLO classes. *)
let max_shed_class = 7

type flow_id = int

type flow = {
  id : flow_id;
  src : int;
  dst : int;
  weight : int;
  priority : int;
  tree : int;
      (* every event of a flow rides one broadcast tree, so the per-tree
         sequence window at each receiver orders finish after start *)
  mutable protocol : Routing.protocol;
  mutable demand_gbps : U.gbps option;
  mutable rate_gbps : U.gbps;
  demand_estimator : Congestion.Demand.t option ref;
}

type t = {
  cfg : config;
  topo : Topology.t;
  rctx : Routing.ctx;
  bcast : Broadcast.t;
  rng : Util.Rng.t;
  flows : (flow_id, flow) Hashtbl.t;
  mutable next_id : flow_id;
  mutable observers : (Wire.broadcast -> unit) list;
  mutable seq_observers : (bytes -> unit) list;
  mutable control_bytes : int;
  mutable reliability_bytes : int;
      (* the loss-tolerance overhead on top of the paper's pinned 16-byte
         broadcast model: sequencing extensions, digests, replays, syncs *)
  origin : (Wire.broadcast * flow_id) Rbcast.origin;
  mutable event_retransmits : int;
  mutable syncs_sent : int;
  loss_headroom : Congestion.Overload.Headroom.t;
  capacities : U.byte_rate array;
  alloc : Congestion.Waterfill.Inc.t;
      (* incremental epoch state: patched on every flow event, so a
         recompute with no intervening event is O(1) *)
  admission : Congestion.Overload.Admission.t;
      (* strict-priority shedding; inert until {!note_epoch_load} reports
         an overloaded epoch *)
  mutable shed_flows : int;
}

let create ?(config = default_config) ?(seed = 1) topo =
  if U.compare_q Congestion.Overload.Headroom.cap config.headroom < 0 then
    invalid_arg "Stack.create: headroom above the loss-scaled cap";
  let capacities =
    Array.make (Topology.link_count topo) (U.byte_rate_of_gbps config.link_gbps)
  in
  {
    cfg = config;
    topo;
    rctx = Routing.make topo;
    bcast = Broadcast.make ~trees_per_source:config.trees_per_source topo;
    rng = Util.Rng.create seed;
    flows = Hashtbl.create 64;
    next_id = 0;
    observers = [];
    seq_observers = [];
    control_bytes = 0;
    reliability_bytes = 0;
    origin = Rbcast.origin ~trees:config.trees_per_source ();
    event_retransmits = 0;
    syncs_sent = 0;
    loss_headroom = Congestion.Overload.Headroom.create ~base:config.headroom;
    capacities;
    alloc = Congestion.Waterfill.Inc.create ~headroom:config.headroom ~capacities ();
    admission =
      Congestion.Overload.Admission.create ~max_priority:max_shed_class ();
    shed_flows = 0;
  }

let topology t = t.topo
let routing t = t.rctx
let broadcast t = t.bcast
let config t = t.cfg
let on_broadcast t f = t.observers <- f :: t.observers
let on_broadcast_seq t f = t.seq_observers <- f :: t.seq_observers

(* Broadcast replicas one event costs: one packet per non-root vertex. *)
let fanout t = Broadcast.bytes_per_broadcast t.topo / Wire.broadcast_size

let pkt_of_flow f event =
  let demand_kbps =
    match f.demand_gbps with
    | None -> 0
    | Some g -> min 0xFFFFFFFF (int_of_float ((g : U.gbps :> float) *. 1_000_000.0))
  in
  {
    Wire.event;
    bsrc = f.src;
    bdst = f.dst;
    weight = min 255 f.weight;
    priority = min 255 f.priority;
    demand_kbps;
    tree = f.tree;
    rp = f.protocol;
  }

let emit_broadcast t f event =
  let pkt = pkt_of_flow f event in
  (* The encoding must round-trip; this exercises the wire format on every
     control event. *)
  (match Wire.decode_broadcast (Wire.encode_broadcast pkt) with
  | Ok p -> assert (p = pkt)
  | Error e -> failwith ("Stack: broadcast encoding failed: " ^ e));
  t.control_bytes <- t.control_bytes + Broadcast.bytes_per_broadcast t.topo;
  (match event with
  | Wire.Flow_start -> Rbcast.mark_live t.origin f.id
  | Wire.Flow_finish -> Rbcast.mark_dead t.origin f.id
  | Wire.Demand_update | Wire.Route_change -> ());
  let seq = Rbcast.send t.origin ~tree:f.tree (pkt, f.id) in
  let wire = Wire.encode_seq_broadcast pkt ~flow:f.id ~seq in
  (match Wire.decode_seq_broadcast wire with
  | Ok (p, fl, sq) -> assert (p = pkt && fl = f.id && sq = seq)
  | Error e -> failwith ("Stack: seq broadcast encoding failed: " ^ e));
  t.reliability_bytes <-
    t.reliability_bytes
    + ((Wire.seq_broadcast_size - Wire.broadcast_size) * fanout t);
  List.iter (fun obs -> obs pkt) t.observers;
  List.iter (fun obs -> obs wire) t.seq_observers

let find t id =
  match Hashtbl.find_opt t.flows id with
  | Some f -> f
  | None -> invalid_arg "Stack: unknown flow id"

let open_flow ?(weight = 1) ?(priority = 0) ?protocol t ~src ~dst =
  let h = Topology.host_count t.topo in
  if src = dst then invalid_arg "Stack.open_flow: src = dst";
  if src < 0 || src >= h || dst < 0 || dst >= h then
    invalid_arg "Stack.open_flow: host out of range";
  if weight < 1 then invalid_arg "Stack.open_flow: weight < 1";
  let id = t.next_id in
  t.next_id <- id + 1;
  let f =
    {
      id;
      src;
      dst;
      weight;
      priority;
      tree = Broadcast.choose_tree t.bcast t.rng ~src;
      protocol = Option.value ~default:t.cfg.default_protocol protocol;
      demand_gbps = None;
      rate_gbps = U.gbps 0.0;
      demand_estimator = ref None;
    }
  in
  Hashtbl.replace t.flows id f;
  Congestion.Waterfill.Inc.add_flow ~weight:(float_of_int weight) ~priority t.alloc ~id
    (Routing.fractions t.rctx f.protocol ~src ~dst);
  emit_broadcast t f Wire.Flow_start;
  id

(* -- overload admission ---------------------------------------------------- *)

let note_epoch_load t ~overloaded =
  Congestion.Overload.Admission.note_epoch t.admission ~overloaded

let admits t ~priority = Congestion.Overload.Admission.admits t.admission ~priority
let shed_floor t = Congestion.Overload.Admission.shed_floor t.admission
let shed_flows t = t.shed_flows

let try_open_flow ?weight ?(priority = 0) ?protocol t ~src ~dst =
  if admits t ~priority then Some (open_flow ?weight ~priority ?protocol t ~src ~dst)
  else begin
    t.shed_flows <- t.shed_flows + 1;
    None
  end

let set_class_reserve t ~priority ~reserve =
  Congestion.Waterfill.Inc.set_class_reserve t.alloc ~priority ~reserve

let close_flow t id =
  let f = find t id in
  Hashtbl.remove t.flows id;
  Congestion.Waterfill.Inc.remove_flow t.alloc ~id;
  emit_broadcast t f Wire.Flow_finish

let set_demand t id ~gbps =
  let f = find t id in
  f.demand_gbps <- gbps;
  Congestion.Waterfill.Inc.set_demand t.alloc ~id (Option.map U.byte_rate_of_gbps gbps);
  emit_broadcast t f Wire.Demand_update

let set_protocol t id proto =
  let f = find t id in
  if f.protocol <> proto then begin
    f.protocol <- proto;
    Congestion.Waterfill.Inc.set_links t.alloc ~id
      (Routing.fractions t.rctx proto ~src:f.src ~dst:f.dst);
    emit_broadcast t f Wire.Route_change
  end

let observe_sender_queue t id ~queued_bytes ~period_ns =
  let f = find t id in
  let est =
    match !(f.demand_estimator) with
    | Some e -> e
    | None ->
        let e = Congestion.Demand.create ~period_ns () in
        f.demand_estimator := Some e;
        e
  in
  (* Rates are tracked in Gbps; the estimator works in bytes/ns. *)
  Congestion.Demand.observe est ~rate:(U.byte_rate_of_gbps f.rate_gbps) ~queued_bytes;
  let alloc = U.byte_rate_of_gbps f.rate_gbps in
  if U.compare_q alloc U.zero > 0 && Congestion.Demand.is_host_limited est ~allocation:alloc
  then set_demand t id ~gbps:(Some (U.gbps_of_byte_rate (Congestion.Demand.estimate est)))

let flow_array t = Util.Tbl.sorted_values ~cmp:Int.compare t.flows

let recompute t =
  (* Flow open/close/demand/reroute events have already patched [t.alloc];
     an epoch with no event since the last one is a no-op. *)
  if Congestion.Waterfill.Inc.is_dirty t.alloc then begin
    Congestion.Waterfill.Inc.allocate t.alloc;
    Congestion.Waterfill.Inc.iter_rates t.alloc (fun ~id ~rate ->
        match Hashtbl.find_opt t.flows id with
        | Some f -> f.rate_gbps <- U.gbps_of_byte_rate rate
        | None -> ())
  end

let rate_gbps t id = (find t id).rate_gbps

let allocations t =
  List.rev
    (Util.Tbl.fold_sorted ~cmp:Int.compare
       (fun id f acc -> (id, f.rate_gbps) :: acc)
       t.flows [])

let active_flows t =
  List.rev
    (Util.Tbl.fold_sorted ~cmp:Int.compare
       (fun id f acc -> (id, f.src, f.dst, f.protocol) :: acc)
       t.flows [])

let aggregate_throughput_gbps t =
  (* Summing in flow-id order keeps the float total identical on every node. *)
  U.gbps
    (Util.Tbl.fold_sorted ~cmp:Int.compare
       (fun _ f acc -> acc +. (f.rate_gbps :> float))
       t.flows 0.0)

let reselect_routing ?pop_size ?mutation ?generations t rng =
  let fl = flow_array t in
  if Array.length fl = 0 then 0
  else begin
    let selector =
      Genetic.Selector.make ~headroom:t.cfg.headroom ~choices:t.cfg.selection_choices t.rctx
        ~link_gbps:t.cfg.link_gbps
    in
    let flows = Array.map (fun f -> (f.src, f.dst)) fl in
    (* Flows routed outside the choice set keep their protocol but seed the
       search from the default choice. *)
    let in_choices p = Array.exists (fun c -> c = p) t.cfg.selection_choices in
    let init =
      Array.map
        (fun f -> if in_choices f.protocol then f.protocol else t.cfg.selection_choices.(0))
        fl
    in
    let current = Genetic.Selector.aggregate_throughput_gbps selector ~flows init in
    let best, fit =
      Genetic.Selector.select ?pop_size ?mutation ?generations selector rng ~flows ~init
    in
    let fit = U.to_float fit and current = U.to_float current in
    if fit > current +. 1e-9 then begin
      let changed = ref 0 in
      Array.iteri
        (fun i f ->
          if f.protocol <> best.(i) then begin
            incr changed;
            set_protocol t f.id best.(i)
          end)
        fl;
      !changed
    end
    else 0
  end

let sample_packet_route t id rng =
  let f = find t id in
  let path = Routing.sample_path t.rctx rng f.protocol ~src:f.src ~dst:f.dst in
  (path, Wire.route_selectors t.rctx path)

let control_bytes_sent t = t.control_bytes
let reliability_bytes_sent t = t.reliability_bytes
let loss_ewma t = Congestion.Overload.Headroom.loss_ewma t.loss_headroom
let effective_headroom t = Congestion.Overload.Headroom.effective t.loss_headroom
let syncs_sent t = t.syncs_sent
let event_retransmits t = t.event_retransmits
let last_seq t ~tree = Rbcast.last_seq t.origin ~tree

(* The origin's live set is [t.flows]' ids: each write there emits a start
   or finish event, and [restart] empties both. *)
let matrix_hash t = Rbcast.state_hash t.origin

let emit_digests ?(src = 0) t =
  let epoch = Rbcast.bump_epoch t.origin in
  let hash = Int64.of_int (matrix_hash t) in
  let ds = ref [] in
  for tree = t.cfg.trees_per_source - 1 downto 0 do
    let last = Rbcast.last_seq t.origin ~tree in
    (* A tree that never carried an event has nothing to anti-entropy. *)
    if last >= 0 then begin
      t.reliability_bytes <- t.reliability_bytes + (Wire.digest_size * fanout t);
      ds := { Wire.dsrc = src; dtree = tree; epoch; last_seq = last; state_hash = hash } :: !ds
    end
  done;
  (* The whole beacon round travels as one contiguous batch; check it
     round-trips once instead of re-encoding each digest separately. *)
  let items = List.map (fun d -> Wire.Item_digest d) !ds in
  (match Wire.decode_batch (Wire.encode_batch items) with
  | Ok got -> assert (got = items)
  | Error e -> failwith ("Stack: digest batch encoding failed: " ^ e));
  !ds

let replay t ~tree ~seq =
  match Rbcast.replay t.origin ~tree ~seq with
  | None -> None
  | Some (pkt, flow) ->
      t.event_retransmits <- t.event_retransmits + 1;
      (* A repair travels the whole tree again: losers downstream of the
         original loss need it too. *)
      t.reliability_bytes <- t.reliability_bytes + (Wire.seq_broadcast_size * fanout t);
      Some (Wire.encode_seq_broadcast pkt ~flow ~seq)

let replay_range t ~tree ~from_seq ~to_seq =
  if to_seq < from_seq then invalid_arg "Stack.replay_range: empty range";
  let items = ref [] in
  for seq = to_seq downto from_seq do
    match Rbcast.replay t.origin ~tree ~seq with
    | None -> ()  (* evicted: the requester falls back to a full sync *)
    | Some (pkt, flow) ->
        t.event_retransmits <- t.event_retransmits + 1;
        t.reliability_bytes <- t.reliability_bytes + (Wire.seq_broadcast_size * fanout t);
        items := Wire.Item_seq_broadcast (pkt, flow, seq) :: !items
  done;
  if !items = [] then None else Some (Wire.encode_batch !items)

let sync_view t view =
  let fl = flow_array t in
  let flows =
    Array.to_list (Array.map (fun f -> (f.id, pkt_of_flow f Wire.Flow_start)) fl)
  in
  let last_seqs =
    Array.init t.cfg.trees_per_source (fun tree -> Rbcast.last_seq t.origin ~tree)
  in
  View.sync view ~flows ~last_seqs;
  t.syncs_sent <- t.syncs_sent + 1;
  t.reliability_bytes <-
    t.reliability_bytes
    + Control_traffic.sync_bytes ~flows:(Array.length fl) ~trees:t.cfg.trees_per_source

let watchdog t views =
  let h = matrix_hash t in
  let repaired = ref 0 in
  List.iter
    (fun v ->
      if View.matrix_hash v <> h then begin
        sync_view t v;
        incr repaired
      end)
    views;
  !repaired

let incarnation t = Rbcast.incarnation t.origin

let restart ?(src = 0) t =
  (* The crash destroyed the authoritative state: every open flow is gone
     (silently — a dead node cannot announce finishes) and the origin
     comes back under a fresh incarnation whose streams start at sequence
     zero. The returned JOIN is what peers need to void their replicas. *)
  Array.iter
    (fun f ->
      Hashtbl.remove t.flows f.id;
      Congestion.Waterfill.Inc.remove_flow t.alloc ~id:f.id)
    (flow_array t);
  let inc = Rbcast.restart t.origin in
  let j = { Wire.jnode = src; jinc = inc } in
  let wire = Wire.encode_join j in
  (match Wire.decode_join wire with
  | Ok got -> assert (got = j)
  | Error e -> failwith ("Stack: join encoding failed: " ^ e));
  t.reliability_bytes <- t.reliability_bytes + (Wire.join_size * fanout t);
  wire

let snapshot_request ?(requester = 0) t ~root =
  let s =
    { Wire.sroot = root; srequester = requester; sinc = incarnation t }
  in
  let wire = Wire.encode_snapshot_req s in
  (match Wire.decode_snapshot_req wire with
  | Ok got -> assert (got = s)
  | Error e -> failwith ("Stack: snapshot-req encoding failed: " ^ e));
  t.reliability_bytes <- t.reliability_bytes + Wire.snapshot_req_size;
  wire

let note_control_loss t ~sent ~lost =
  if sent < 0 || lost < 0 || lost > sent then invalid_arg "Stack.note_control_loss";
  let before = effective_headroom t in
  Congestion.Overload.Headroom.note_loss t.loss_headroom ~sent ~lost;
  let eff = effective_headroom t in
  if U.compare_q eff before <> 0 then Congestion.Waterfill.Inc.set_headroom t.alloc eff

let handle_failure t =
  let fl = flow_array t in
  Array.iter (fun f -> emit_broadcast t f Wire.Flow_start) fl;
  (* A bare re-announce would lose the demand side of the rack state: peers
     rebuild the traffic matrix from these broadcasts, so every flow whose
     demand is known — declared or estimated — re-emits it too. This only
     rebuilds the view of the flows still in the table; dropping flows with
     a dead endpoint is [notify_failure]'s job. *)
  Array.iter
    (fun f ->
      if f.demand_gbps <> None || !(f.demand_estimator) <> None then
        emit_broadcast t f Wire.Demand_update)
    fl

let notify_failure t =
  (* Tree repair first: the drop and re-announce broadcasts below must ride
     surviving trees. The FIB re-announcements count as control traffic. *)
  let rb = Broadcast.repair_bytes t.bcast in
  ignore (Broadcast.repair_all t.bcast);
  t.control_bytes <- t.control_bytes + (Broadcast.repair_bytes t.bcast - rb);
  let fl = flow_array t in
  let dropped = ref [] in
  Array.iter
    (fun f ->
      if not (Topology.reachable t.topo f.src f.dst) then begin
        dropped := f.id :: !dropped;
        Hashtbl.remove t.flows f.id;
        Congestion.Waterfill.Inc.remove_flow t.alloc ~id:f.id;
        emit_broadcast t f Wire.Flow_finish
      end
      else
        (* Fractions are recomputed on the surviving graph (the routing
           cache flushed itself on the topology version bump); patching the
           allocator rows marks it dirty for the next recompute. *)
        Congestion.Waterfill.Inc.set_links t.alloc ~id:f.id
          (Routing.fractions t.rctx f.protocol ~src:f.src ~dst:f.dst))
    fl;
  handle_failure t;
  List.rev !dropped
