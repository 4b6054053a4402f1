(* The lossy control plane: reliable-broadcast windows (Rbcast), peer view
   replicas (View), the Stack repair machinery (digests, NACK replay,
   watchdog sync, loss-scaled headroom), and the packet-level simulation
   under chaos injection — loss, reordering and duplication of control
   packets must never leave the rack with diverged traffic-matrix views. *)

let tc name f = Alcotest.test_case name `Quick f

(* -- Reliability (data plane) dedups on sequence number -------------------- *)

(* A retransmission racing a lost ACK delivers the same packet twice; the
   receiver's per-seq record must absorb it so the delivered count equals
   the packet count exactly — never more. *)
let reliability_dedup_under_loss () =
  let cfg =
    {
      Sim.Reliability.packets = 200;
      rtx_timeout_ns = 10_000;
      max_retries = 50;
      rtx_backoff = 2.0;
      rtx_cap_ns = 200_000;
    }
  in
  let s =
    Sim.Reliability.run_over_lossy_channel ~seed:3 ~loss:(Util.Units.fraction 0.3) cfg
      ~rtt_ns:2_000
  in
  Alcotest.(check bool) "completed" true s.Sim.Reliability.completed;
  Alcotest.(check int) "each packet delivered exactly once" cfg.Sim.Reliability.packets
    s.Sim.Reliability.delivered;
  Alcotest.(check bool) "retransmissions happened" true
    (s.Sim.Reliability.transmissions > cfg.Sim.Reliability.packets)

(* -- Rbcast: sequence windows ---------------------------------------------- *)

(* The buffered run a window releases, oldest first. *)
let take_all tb w =
  let rec go acc =
    match Rbcast.take_next tb w with Some q -> go (q :: acc) | None -> List.rev acc
  in
  go []

(* Feed one packet to a window; on [Deliver], the in-order run it
   releases: the packet itself, then its buffered successors. *)
let receive_run tb w ~seq p =
  match Rbcast.receive tb w ~seq p with
  | Rbcast.Deliver -> (Rbcast.Deliver, p :: take_all tb w)
  | (Rbcast.Duplicate | Rbcast.Buffered) as v -> (v, [])

let rbcast_window_orders_and_dedups () =
  let o = Rbcast.origin ~trees:2 () in
  let s0 = Rbcast.send o ~tree:0 "a" in
  let s1 = Rbcast.send o ~tree:0 "b" in
  let s2 = Rbcast.send o ~tree:0 "c" in
  Alcotest.(check (list int)) "per-tree seqs are dense" [ 0; 1; 2 ] [ s0; s1; s2 ];
  Alcotest.(check int) "other tree has its own space" 0 (Rbcast.send o ~tree:1 "x");
  let tb = Rbcast.table ~origins:1 ~trees:2 ~receivers:1 in
  let r = Rbcast.win tb ~origin:0 ~tree:0 ~receiver:0 in
  (match Rbcast.receive tb r ~seq:1 "b" with
  | Rbcast.Buffered -> ()
  | Rbcast.Deliver | Rbcast.Duplicate -> Alcotest.fail "seq 1 before 0 must buffer");
  Alcotest.(check (list (pair int int))) "gap is visible" [ (0, 0) ] (Rbcast.missing tb r);
  (match receive_run tb r ~seq:0 "a" with
  | Rbcast.Deliver, ps -> Alcotest.(check (list string)) "in order" [ "a"; "b" ] ps
  | (Rbcast.Buffered | Rbcast.Duplicate), _ -> Alcotest.fail "seq 0 must release the window");
  (match Rbcast.receive tb r ~seq:0 "a" with
  | Rbcast.Duplicate -> ()
  | Rbcast.Deliver | Rbcast.Buffered -> Alcotest.fail "replayed seq must dedup");
  Alcotest.(check int) "duplicate counted" 1 (Rbcast.duplicates tb r);
  (match receive_run tb r ~seq:2 "c" with
  | Rbcast.Deliver, ps -> Alcotest.(check (list string)) "tail" [ "c" ] ps
  | (Rbcast.Buffered | Rbcast.Duplicate), _ -> Alcotest.fail "seq 2 must deliver");
  Alcotest.(check (option string)) "origin replays" (Some "b") (Rbcast.replay o ~tree:0 ~seq:1)

(* The reference semantics the flat window table must keep: one heap
   record per window, as the receive windows were first written, with the
   [hi] bound and the timer generation kept beside it the way its callers
   did. *)
module Rx_oracle = struct
  type 'a t = {
    mutable rnext : int;
    pending : (int, 'a) Hashtbl.t;
    mutable dups : int;
    mutable armed : bool;
    mutable rinc : int;
    mutable hi : int;
    mutable gen : int;
  }

  let create () =
    { rnext = 0; pending = Hashtbl.create 8; dups = 0; armed = false; rinc = 0; hi = -1; gen = 0 }

  let wipe r =
    Hashtbl.reset r.pending;
    r.rnext <- 0;
    r.dups <- 0;
    r.armed <- false;
    r.rinc <- 0;
    r.hi <- -1;
    r.gen <- r.gen + 1

  let observe_incarnation r ~inc =
    if inc < r.rinc then Rbcast.Stale
    else if inc = r.rinc then Rbcast.Current
    else begin
      Hashtbl.reset r.pending;
      r.rnext <- 0;
      r.armed <- false;
      r.rinc <- inc;
      r.hi <- -1;
      r.gen <- r.gen + 1;
      Rbcast.Rekeyed
    end

  let drain r acc =
    let rec go acc =
      match Hashtbl.find_opt r.pending r.rnext with
      | Some p ->
          Hashtbl.remove r.pending r.rnext;
          r.rnext <- r.rnext + 1;
          go (p :: acc)
      | None -> List.rev acc
    in
    go acc

  let receive r ~seq p =
    if seq > r.hi then r.hi <- seq;
    if seq < r.rnext || Hashtbl.mem r.pending seq then begin
      r.dups <- r.dups + 1;
      (Rbcast.Duplicate, [])
    end
    else if seq = r.rnext then begin
      r.rnext <- r.rnext + 1;
      (Rbcast.Deliver, drain r [ p ])
    end
    else begin
      Hashtbl.replace r.pending seq p;
      (Rbcast.Buffered, [])
    end

  let missing r =
    let out = ref [] and from = ref (-1) in
    for s = r.rnext to r.hi do
      if Hashtbl.mem r.pending s then begin
        if !from >= 0 then begin
          out := (!from, s - 1) :: !out;
          from := -1
        end
      end
      else if !from < 0 then from := s
    done;
    if !from >= 0 then out := (!from, r.hi) :: !out;
    List.rev !out

  let fast_forward r ~next =
    if next - 1 > r.hi then r.hi <- next - 1;
    if next <= r.rnext then []
    else begin
      Array.iter
        (fun s -> if s < next then Hashtbl.remove r.pending s)
        (Util.Tbl.sorted_keys ~cmp:Int.compare r.pending);
      r.rnext <- next;
      drain r []
    end

  let arm r =
    if r.armed then false
    else begin
      r.armed <- true;
      true
    end
end

type rx_op =
  | Recv of int * int  (* window, seq *)
  | Inc of int * int  (* window, incarnation *)
  | Advertise of int * int  (* window, last *)
  | Ffwd of int * int  (* window, next *)
  | Arm of int
  | Disarm of int
  | Wipe of int  (* receiver *)

let rx_origins, rx_trees, rx_receivers = (2, 2, 3)
let rx_windows = rx_origins * rx_trees * rx_receivers

let show_rx_op = function
  | Recv (w, s) -> Printf.sprintf "recv w%d s%d" w s
  | Inc (w, i) -> Printf.sprintf "inc w%d %d" w i
  | Advertise (w, l) -> Printf.sprintf "adv w%d %d" w l
  | Ffwd (w, n) -> Printf.sprintf "ffwd w%d %d" w n
  | Arm w -> Printf.sprintf "arm w%d" w
  | Disarm w -> Printf.sprintf "disarm w%d" w
  | Wipe r -> Printf.sprintf "wipe r%d" r

let gen_rx_ops =
  let open QCheck.Gen in
  let w = int_bound (rx_windows - 1) in
  list_size (int_range 1 80)
    (frequency
       [
         (8, map2 (fun w s -> Recv (w, s)) w (int_bound 12));
         (2, map2 (fun w i -> Inc (w, i)) w (int_bound 3));
         (2, map2 (fun w l -> Advertise (w, l)) w (int_range (-1) 14));
         (2, map2 (fun w n -> Ffwd (w, n)) w (int_bound 14));
         (2, map (fun w -> Arm w) w);
         (1, map (fun w -> Disarm w) w);
         (1, map (fun r -> Wipe r) (int_bound (rx_receivers - 1)));
       ])

let verdict_name = function
  | Rbcast.Deliver -> "deliver"
  | Rbcast.Duplicate -> "duplicate"
  | Rbcast.Buffered -> "buffered"

let keying_name = function
  | Rbcast.Stale -> "stale"
  | Rbcast.Current -> "current"
  | Rbcast.Rekeyed -> "rekeyed"

(* Drive the table and one oracle record per window through the same
   operations. Window ids enumerate (origin, tree, receiver) in the
   table's own order, so window [w] belongs to receiver [w mod
   receivers]. *)
let qcheck_window_table_matches_oracle =
  QCheck.Test.make ~name:"flat window table = per-window rx oracle" ~count:500
    (QCheck.make ~print:(QCheck.Print.list show_rx_op) gen_rx_ops)
    (fun ops ->
      let tb = Rbcast.table ~origins:rx_origins ~trees:rx_trees ~receivers:rx_receivers in
      let ids =
        Array.init rx_windows (fun i ->
            let receiver = i mod rx_receivers and ot = i / rx_receivers in
            Rbcast.win tb ~origin:(ot / rx_trees) ~tree:(ot mod rx_trees) ~receiver)
      in
      Array.iteri (fun i w -> if w <> i then QCheck.Test.fail_reportf "win id %d <> %d" w i) ids;
      let ora = Array.init rx_windows (fun _ -> Rx_oracle.create ()) in
      let payload = ref 0 in
      let check_eq what a b = if a <> b then QCheck.Test.fail_reportf "%s differs" what in
      List.iter
        (fun op ->
          let gens = Array.map (Rbcast.generation tb) ids in
          let ogens = Array.map (fun (r : int Rx_oracle.t) -> r.gen) ora in
          (match op with
          | Recv (w, seq) ->
              incr payload;
              let v, run = receive_run tb w ~seq !payload in
              let ov, orun = Rx_oracle.receive ora.(w) ~seq !payload in
              check_eq
                (Printf.sprintf "verdict (%s vs %s)" (verdict_name v) (verdict_name ov))
                v ov;
              check_eq "delivery order" run orun
          | Inc (w, inc) ->
              let k = Rbcast.observe_incarnation tb w ~inc in
              let ok = Rx_oracle.observe_incarnation ora.(w) ~inc in
              check_eq
                (Printf.sprintf "keying (%s vs %s)" (keying_name k) (keying_name ok))
                k ok
          | Advertise (w, last) ->
              Rbcast.advertise tb w ~last;
              if last > ora.(w).hi then ora.(w).hi <- last
          | Ffwd (w, next) ->
              Rbcast.fast_forward tb w ~next;
              check_eq "fast-forward run" (take_all tb w) (Rx_oracle.fast_forward ora.(w) ~next)
          | Arm w -> check_eq "arm" (Rbcast.arm tb w) (Rx_oracle.arm ora.(w))
          | Disarm w ->
              Rbcast.disarm tb w;
              ora.(w).armed <- false
          | Wipe receiver ->
              Rbcast.wipe_receiver tb ~receiver;
              Array.iteri (fun w r -> if w mod rx_receivers = receiver then Rx_oracle.wipe r) ora);
          Array.iteri
            (fun w (r : int Rx_oracle.t) ->
              check_eq "next expected" (Rbcast.next_expected tb w) r.rnext;
              check_eq "hi" (Rbcast.highest tb w) r.hi;
              check_eq "incarnation" (Rbcast.incarnation_of tb w) r.rinc;
              check_eq "duplicates" (Rbcast.duplicates tb w) r.dups;
              check_eq "pending" (Rbcast.pending_count tb w) (Hashtbl.length r.pending);
              check_eq "gaps" (Rbcast.missing tb w) (Rx_oracle.missing r);
              check_eq "caught up" (Rbcast.caught_up tb w) (r.rnext > r.hi);
              check_eq "generation moved"
                (Rbcast.generation tb w <> gens.(w))
                (r.gen <> ogens.(w)))
            ora;
          check_eq "total duplicates" (Rbcast.total_duplicates tb)
            (Array.fold_left (fun acc (r : int Rx_oracle.t) -> acc + r.dups) 0 ora))
        ops;
      true)

(* -- View: replica repair from the sequenced stream ------------------------ *)

let mk_stack () =
  let topo = Topology.torus [| 2; 2; 2 |] in
  (R2c2.Stack.create ~seed:5 topo, topo)

let feed view bytes =
  match R2c2.View.apply view bytes with
  | R2c2.View.Malformed e -> Alcotest.fail ("view rejected stack bytes: " ^ e)
  | R2c2.View.Applied _ | R2c2.View.Duplicate | R2c2.View.Buffered -> ()

(* Drop a third of the broadcasts on the way to the replica, then let the
   digest + NACK + replay loop repair it: afterwards the replica's hash and
   flow set must equal the authority's, even when the drop hit the last
   packet of the stream (which no later packet could reveal). *)
let view_nack_repair_heals_all_loss () =
  let st, _ = mk_stack () in
  let trees = (R2c2.Stack.config st).R2c2.Stack.trees_per_source in
  let view = R2c2.View.create ~trees () in
  let n = ref 0 in
  R2c2.Stack.on_broadcast_seq st (fun b ->
      incr n;
      if !n mod 3 <> 0 then feed view b);
  let ids = ref [] in
  for i = 0 to 5 do
    ids := R2c2.Stack.open_flow st ~src:(i mod 8) ~dst:((i + 3) mod 8) :: !ids
  done;
  (match !ids with
  | last :: _ -> R2c2.Stack.close_flow st last
  | [] -> assert false);
  Alcotest.(check bool) "loss actually diverged the replica" true
    (R2c2.View.matrix_hash view <> R2c2.Stack.matrix_hash st);
  (* Anti-entropy: keep running digest rounds until the replica reports no
     gaps; every gap is NACKed back as a replay of the original bytes. *)
  let rounds = ref 0 in
  let rec heal () =
    incr rounds;
    if !rounds > 10 then Alcotest.fail "view did not heal within 10 digest rounds";
    let again = ref false in
    List.iter
      (fun d ->
        match R2c2.View.observe_digest view d with
        | R2c2.View.Gaps ranges ->
            again := true;
            List.iter
              (fun (lo, hi) ->
                for seq = lo to hi do
                  match R2c2.Stack.replay st ~tree:d.Wire.dtree ~seq with
                  | Some bytes -> feed view bytes
                  | None -> Alcotest.fail "replay log evicted too early"
                done)
              ranges
        | R2c2.View.Diverged -> Alcotest.fail "caught-up replica cannot hash differently"
        | R2c2.View.Synced -> ())
      (R2c2.Stack.emit_digests st);
    if !again then heal ()
  in
  heal ();
  Alcotest.(check bool) "hashes agree after repair" true
    (R2c2.View.matrix_hash view = R2c2.Stack.matrix_hash st);
  Alcotest.(check (list int)) "flow sets agree"
    (List.map (fun (id, _) -> id) (R2c2.Stack.allocations st))
    (R2c2.View.flow_ids view);
  Alcotest.(check bool) "repairs were charged" true (R2c2.Stack.reliability_bytes_sent st > 0);
  Alcotest.(check bool) "replays counted" true (R2c2.Stack.event_retransmits st > 0)

(* Same healing loop as above, but every NACKed gap is answered with one
   replay_range batch instead of per-sequence replays: the batched path
   must repair the replica identically and charge the same per-event
   accounting as single replays would. *)
let view_batched_repair_heals_all_loss () =
  let st, _ = mk_stack () in
  let trees = (R2c2.Stack.config st).R2c2.Stack.trees_per_source in
  let view = R2c2.View.create ~trees () in
  let n = ref 0 in
  R2c2.Stack.on_broadcast_seq st (fun b ->
      incr n;
      if !n mod 3 <> 0 then feed view b);
  let ids = ref [] in
  for i = 0 to 5 do
    ids := R2c2.Stack.open_flow st ~src:(i mod 8) ~dst:((i + 3) mod 8) :: !ids
  done;
  (match !ids with
  | last :: _ -> R2c2.Stack.close_flow st last
  | [] -> assert false);
  Alcotest.(check bool) "loss actually diverged the replica" true
    (R2c2.View.matrix_hash view <> R2c2.Stack.matrix_hash st);
  let rounds = ref 0 in
  let rec heal () =
    incr rounds;
    if !rounds > 10 then Alcotest.fail "view did not heal within 10 digest rounds";
    let again = ref false in
    List.iter
      (fun d ->
        match R2c2.View.observe_digest view d with
        | R2c2.View.Gaps ranges ->
            again := true;
            List.iter
              (fun (lo, hi) ->
                let before = R2c2.Stack.event_retransmits st in
                match
                  R2c2.Stack.replay_range st ~tree:d.Wire.dtree ~from_seq:lo ~to_seq:hi
                with
                | None -> Alcotest.fail "replay log evicted too early"
                | Some batch -> (
                    Alcotest.(check int) "one retransmit per ranged event"
                      (hi - lo + 1)
                      (R2c2.Stack.event_retransmits st - before);
                    match R2c2.View.apply_batch view batch with
                    | Error e -> Alcotest.fail ("repair batch rejected: " ^ e)
                    | Ok verdicts ->
                        Alcotest.(check int) "one verdict per ranged event"
                          (hi - lo + 1) (List.length verdicts);
                        List.iter
                          (function
                            | R2c2.View.Malformed e ->
                                Alcotest.fail ("malformed repair item: " ^ e)
                            | R2c2.View.Applied _ | R2c2.View.Duplicate
                            | R2c2.View.Buffered ->
                                ())
                          verdicts))
              ranges
        | R2c2.View.Diverged -> Alcotest.fail "caught-up replica cannot hash differently"
        | R2c2.View.Synced -> ())
      (R2c2.Stack.emit_digests st);
    if !again then heal ()
  in
  heal ();
  Alcotest.(check bool) "hashes agree after batched repair" true
    (R2c2.View.matrix_hash view = R2c2.Stack.matrix_hash st);
  Alcotest.(check (list int)) "flow sets agree"
    (List.map (fun (id, _) -> id) (R2c2.Stack.allocations st))
    (R2c2.View.flow_ids view);
  Alcotest.check_raises "empty range raises"
    (Invalid_argument "Stack.replay_range: empty range") (fun () ->
      ignore (R2c2.Stack.replay_range st ~tree:0 ~from_seq:5 ~to_seq:4))

let view_dedups_duplicates () =
  let st, _ = mk_stack () in
  let trees = (R2c2.Stack.config st).R2c2.Stack.trees_per_source in
  let view = R2c2.View.create ~trees () in
  (* Deliver everything twice: the replica must apply each event once. *)
  R2c2.Stack.on_broadcast_seq st (fun b ->
      feed view b;
      match R2c2.View.apply view b with
      | R2c2.View.Duplicate -> ()
      | R2c2.View.Applied _ | R2c2.View.Buffered | R2c2.View.Malformed _ ->
          Alcotest.fail "second copy must be absorbed as a duplicate");
  let a = R2c2.Stack.open_flow st ~src:0 ~dst:1 in
  let _b = R2c2.Stack.open_flow st ~src:2 ~dst:3 in
  R2c2.Stack.close_flow st a;
  Alcotest.(check int) "three events applied once each" 3 (R2c2.View.applied view);
  Alcotest.(check int) "three duplicates absorbed" 3 (R2c2.View.duplicates view);
  Alcotest.(check bool) "views agree" true
    (R2c2.View.matrix_hash view = R2c2.Stack.matrix_hash st)

(* -- Stack: watchdog full-state sync and loss-scaled headroom -------------- *)

let watchdog_repairs_diverged_view () =
  let st, _ = mk_stack () in
  let trees = (R2c2.Stack.config st).R2c2.Stack.trees_per_source in
  let connected = R2c2.View.create ~trees () in
  let deaf = R2c2.View.create ~trees () in
  R2c2.Stack.on_broadcast_seq st (fun b -> feed connected b);
  for i = 0 to 3 do
    ignore (R2c2.Stack.open_flow st ~src:i ~dst:(i + 4))
  done;
  Alcotest.(check int) "one replica needs repair" 1
    (R2c2.Stack.watchdog st [ connected; deaf ]);
  Alcotest.(check bool) "deaf replica synced" true
    (R2c2.View.matrix_hash deaf = R2c2.Stack.matrix_hash st);
  Alcotest.(check (list int)) "full flow set transferred"
    (R2c2.View.flow_ids connected) (R2c2.View.flow_ids deaf);
  Alcotest.(check int) "sync counted" 1 (R2c2.Stack.syncs_sent st);
  Alcotest.(check int) "clean watchdog round" 0 (R2c2.Stack.watchdog st [ connected; deaf ]);
  (* Events after the sync flow through the fast-forwarded windows. *)
  R2c2.Stack.on_broadcast_seq st (fun b -> feed deaf b);
  let f = R2c2.Stack.open_flow st ~src:0 ~dst:5 in
  R2c2.Stack.close_flow st f;
  ignore (R2c2.Stack.open_flow st ~src:1 ~dst:6);
  Alcotest.(check bool) "post-sync stream applies" true
    (R2c2.View.matrix_hash deaf = R2c2.Stack.matrix_hash st)

let loss_ewma_scales_headroom () =
  let st, _ = mk_stack () in
  let base = Util.Units.to_float (R2c2.Stack.config st).R2c2.Stack.headroom in
  Alcotest.(check (float 1e-9)) "starts at configured headroom" base
    (Util.Units.to_float (R2c2.Stack.effective_headroom st));
  R2c2.Stack.note_control_loss st ~sent:100 ~lost:10;
  Alcotest.(check (float 1e-9)) "EWMA weights the sample by 0.2" 0.02
    (Util.Units.to_float (R2c2.Stack.loss_ewma st));
  Alcotest.(check (float 1e-9)) "headroom grows with observed loss" (base +. (2.0 *. 0.02))
    (Util.Units.to_float (R2c2.Stack.effective_headroom st));
  (* Persistent heavy loss saturates at the cap, never at an allocator-
     breaking value. *)
  for _ = 1 to 50 do
    R2c2.Stack.note_control_loss st ~sent:10 ~lost:9
  done;
  Alcotest.(check (float 1e-9)) "capped at max_headroom"
    (Util.Units.to_float Congestion.Overload.Headroom.cap)
    (Util.Units.to_float (R2c2.Stack.effective_headroom st));
  (* A clean interval decays the estimate and the reserve follows. *)
  for _ = 1 to 50 do
    R2c2.Stack.note_control_loss st ~sent:100 ~lost:0
  done;
  Alcotest.(check bool) "recovers toward the base" true
    (Util.Units.to_float (R2c2.Stack.effective_headroom st) < base +. 0.01);
  Alcotest.check_raises "lost > sent rejected"
    (Invalid_argument "Stack.note_control_loss") (fun () ->
      R2c2.Stack.note_control_loss st ~sent:1 ~lost:2)

(* -- the live-flow set hash ------------------------------------------------ *)

(* The reference: FNV-1a over the ids in ascending order, an order-sensitive
   hash that needs the sorted set. Two sets must hash equal under the kept
   hash exactly when they do under it. *)
let fnv_reference ids =
  List.fold_left
    (fun h v -> Int64.mul (Int64.logxor h (Int64.of_int v)) 0x100000001B3L)
    0xCBF29CE484222325L (List.sort_uniq Int.compare ids)

(* The set hash recomputed from scratch: a fresh origin marking [ids] in
   the given order. *)
let fresh_hash ids =
  let o = Rbcast.origin ~trees:1 () in
  List.iter (Rbcast.mark_live o) ids;
  Rbcast.state_hash o

type set_op =
  | Start of bool * bool * int  (* to the origin?, to the view?, flow id *)
  | Finish of bool * bool * int
  | Restart_origin  (* Rbcast.restart *)
  | Reset_view  (* View.observe_incarnation with a newer incarnation *)
  | Sync_view  (* View.sync to the origin's live set *)

let show_set_op =
  let sides o v = (if o then " o" else "") ^ if v then " v" else "" in
  function
  | Start (o, v, id) -> Printf.sprintf "start%s %d" (sides o v) id
  | Finish (o, v, id) -> Printf.sprintf "finish%s %d" (sides o v) id
  | Restart_origin -> "restart"
  | Reset_view -> "reset-view"
  | Sync_view -> "sync"

(* Ids from a small range, so inserts of present ids and removes of
   absent ones are common. Case [k] draws its operations from
   [Util.Rng.create k], so every run checks the same sequences. *)
let gen_set_ops =
  let case = ref 0 in
  fun _ ->
    incr case;
    let rng = Util.Rng.create !case in
    List.init
      (1 + Util.Rng.int rng 60)
      (fun _ ->
        let to_o, to_v = Util.Rng.pick rng [| (true, true); (true, false); (false, true) |] in
        let id = Util.Rng.int rng 12 in
        match Util.Rng.int rng 14 with
        | r when r < 6 -> Start (to_o, to_v, id)
        | r when r < 11 -> Finish (to_o, to_v, id)
        | 11 -> Restart_origin
        | 12 -> Reset_view
        | _ -> Sync_view)

let event_pkt event =
  {
    Wire.event;
    bsrc = 0;
    bdst = 1;
    weight = 1;
    priority = 0;
    demand_kbps = 0;
    tree = 0;
    rp = Routing.Rps;
  }

(* An origin and a one-tree view driven by the same random operations,
   each sometimes applied to one side only: after every step, each kept
   hash equals the from-scratch hash of its set in ascending and in
   descending insertion order, and every pair of sets seen so far hashes
   equal exactly when the FNV reference does. *)
let qcheck_set_hash_matches_reference =
  QCheck.Test.make ~name:"kept set hash = from-scratch hash, equal iff FNV reference" ~count:300
    (QCheck.make ~print:(QCheck.Print.list show_set_op) ~shrink:QCheck.Shrink.list gen_set_ops)
    (fun ops ->
      let o = Rbcast.origin ~trees:1 () in
      let v = R2c2.View.create ~trees:1 () in
      let seq = ref 0 and inc = ref 0 in
      let send event flow =
        match R2c2.View.apply v (Wire.encode_seq_broadcast (event_pkt event) ~flow ~seq:!seq) with
        | R2c2.View.Applied 1 -> incr seq
        | R2c2.View.Applied _ | R2c2.View.Duplicate | R2c2.View.Buffered | R2c2.View.Malformed _ ->
            QCheck.Test.fail_report "view did not apply an in-order event"
      in
      let seen = ref [] in
      let check what kept ids =
        if kept <> fresh_hash ids then QCheck.Test.fail_reportf "%s: kept <> from scratch" what;
        if kept <> fresh_hash (List.rev ids) then
          QCheck.Test.fail_reportf "%s: depends on insertion order" what;
        let f = fnv_reference ids in
        List.iter
          (fun (h, f') ->
            if (kept = h) <> (f = f') then
              QCheck.Test.fail_reportf "%s: equal under one hash, not the other" what)
          !seen;
        seen := (kept, f) :: !seen
      in
      List.iter
        (fun op ->
          (match op with
          | Start (to_o, to_v, id) ->
              if to_o then Rbcast.mark_live o id;
              if to_v then send Wire.Flow_start id
          | Finish (to_o, to_v, id) ->
              if to_o then Rbcast.mark_dead o id;
              if to_v then send Wire.Flow_finish id
          | Restart_origin -> ignore (Rbcast.restart o)
          | Reset_view ->
              incr inc;
              if R2c2.View.observe_incarnation v ~inc:!inc <> `Reset then
                QCheck.Test.fail_report "newer incarnation did not reset the view";
              seq := 0
          | Sync_view ->
              R2c2.View.sync v
                ~flows:(List.map (fun id -> (id, event_pkt Wire.Flow_start)) (Rbcast.live_ids o))
                ~last_seqs:[| !seq - 1 |]);
          check "origin" (Rbcast.state_hash o) (Rbcast.live_ids o);
          check "view" (R2c2.View.matrix_hash v) (R2c2.View.flow_ids v))
        ops;
      true)

(* -- packet-level simulation under chaos ----------------------------------- *)

let interval = 100_000

let sim_cfg ?(loss = 0.0) ?(reorder = 0.0) ?(dup = 0.0) ?(seed = 7) () =
  {
    Sim.R2c2_sim.default_config with
    control = Sim.R2c2_sim.Per_node;
    reliable_bcast = true;
    recompute_interval_ns = interval;
    digest_interval_ns = 50_000;
    control_loss = Util.Units.fraction loss;
    control_reorder = Util.Units.fraction reorder;
    control_dup = Util.Units.fraction dup;
    seed;
  }

let permutation t topo ~size =
  let h = Topology.host_count topo in
  for i = 0 to h - 1 do
    ignore (Sim.R2c2_sim.start_flow t ~src:i ~dst:((i + (h / 2) + 1) mod h) ~size)
  done

let run_chaos ~loss () =
  let topo = Topology.torus [| 3; 3; 3 |] in
  let t = Sim.R2c2_sim.create (sim_cfg ~loss ()) topo in
  permutation t topo ~size:120_000;
  Sim.R2c2_sim.run_engine t;
  (t, Sim.R2c2_sim.results t, Topology.host_count topo)

(* Same seed, same chaos rates: every counter of the run is reproducible. *)
let chaos_is_deterministic () =
  let _, a, _ = run_chaos ~loss:0.03 () in
  let _, b, _ = run_chaos ~loss:0.03 () in
  let open Sim.R2c2_sim in
  let sig_of r =
    ( r.ctrl_lost,
      r.nacks_sent,
      r.event_retransmits,
      r.divergence_epochs,
      r.reconverge_samples,
      Sim.Metrics.completed_count r.metrics )
  in
  Alcotest.(check bool) "identical signatures" true (sig_of a = sig_of b);
  Alcotest.(check bool) "chaos actually fired" true (a.ctrl_lost > 0)

(* Loss at 5%: every flow still completes, the control plane reconverges,
   and every divergence window closes within a bounded number of epochs. *)
let reconverges_under_5pct_loss () =
  let t, r, h = run_chaos ~loss:0.05 () in
  let open Sim.R2c2_sim in
  Alcotest.(check int) "all flows complete" h (Sim.Metrics.completed_count r.metrics);
  Alcotest.(check (list int)) "no aborts" [] r.aborted_flows;
  Alcotest.(check int) "zero terminal divergence" 0 r.terminal_diverged;
  Alcotest.(check bool) "control plane converged" true (Sim.R2c2_sim.control_converged t);
  List.iter
    (fun s ->
      if s > 20 * interval then
        Alcotest.failf "reconvergence took %d ns > %d ns" s (20 * interval))
    r.reconverge_samples;
  Alcotest.(check bool) "repair machinery engaged" true (r.nacks_sent > 0)

(* Duplication without loss: windows absorb every duplicate and the run is
   indistinguishable from a clean one in its outcome. *)
let duplicates_are_absorbed () =
  let topo = Topology.torus [| 3; 3; 3 |] in
  let t = Sim.R2c2_sim.create (sim_cfg ~dup:0.2 ()) topo in
  permutation t topo ~size:120_000;
  Sim.R2c2_sim.run_engine t;
  let r = Sim.R2c2_sim.results t in
  let open Sim.R2c2_sim in
  Alcotest.(check int) "all flows complete" (Topology.host_count topo)
    (Sim.Metrics.completed_count r.metrics);
  Alcotest.(check bool) "duplicates injected" true (r.ctrl_dupped > 0);
  Alcotest.(check bool) "duplicates absorbed" true (r.dup_events_absorbed > 0);
  Alcotest.(check int) "zero terminal divergence" 0 r.terminal_diverged;
  Alcotest.(check bool) "converged" true (Sim.R2c2_sim.control_converged t)

(* The acceptance property: after a lossy period ends (rates flipped
   mid-run through the engine), every alive node's view reconverges to a
   byte-identical allocation vector. *)
let identical_allocations_after_2pct_loss () =
  let topo = Topology.torus [| 3; 3; 3 |] in
  let t = Sim.R2c2_sim.create (sim_cfg ~loss:0.02 ()) topo in
  (* Lossy for the first 600 us, clean afterwards. *)
  Sim.R2c2_sim.set_control_chaos_at t ~ns:600_000 ~loss:(Util.Units.fraction 0.0) ~reorder:(Util.Units.fraction 0.0)
    ~dup:(Util.Units.fraction 0.0);
  permutation t topo ~size:3_000_000;
  Sim.R2c2_sim.run_engine ~until_ns:1_500_000 t;
  let h = Topology.host_count topo in
  Alcotest.(check bool) "flows still active mid-run" true
    (Sim.Metrics.completed_count (Sim.R2c2_sim.metrics t) < h);
  Alcotest.(check int) "no diverged nodes" 0 (Sim.R2c2_sim.diverged_nodes t);
  Alcotest.(check bool) "control plane converged" true (Sim.R2c2_sim.control_converged t);
  let reference = Sim.R2c2_sim.node_allocations t ~node:0 in
  Alcotest.(check bool) "views are non-trivial" true (Array.length reference > 0);
  for node = 1 to h - 1 do
    if Sim.R2c2_sim.node_allocations t ~node <> reference then
      Alcotest.failf "node %d computes a different allocation vector" node
  done;
  (* The observed-loss EWMA reacted while packets were being dropped. *)
  let r = Sim.R2c2_sim.results t in
  Alcotest.(check bool) "chaos fired" true (r.Sim.R2c2_sim.ctrl_lost > 0);
  Alcotest.(check bool) "headroom scaled up" true
    (r.Sim.R2c2_sim.effective_headroom > Sim.R2c2_sim.default_config.Sim.R2c2_sim.headroom);
  (* And the run still finishes cleanly. *)
  Sim.R2c2_sim.run_engine t;
  Alcotest.(check int) "all flows complete" h
    (Sim.Metrics.completed_count (Sim.R2c2_sim.metrics t))

(* The [permutation] pairs with sizes from 100 KB to 1.7 MB, so finishes
   spread over a dozen rate epochs. *)
let staggered_permutation t topo =
  let h = Topology.host_count topo in
  for i = 0 to h - 1 do
    ignore
      (Sim.R2c2_sim.start_flow t ~src:i ~dst:((i + (h / 2) + 1) mod h)
         ~size:(100_000 + (i * 37 mod h * 25_000)))
  done

(* The simulator's kept hashes against the FNV reference, recomputed from
   [node_view_ids] every 25 us of a 2%-loss run: [diverged_nodes] equals
   the reference count of nodes off the modal view, and [control_converged]
   never holds while some node's view of an origin's flows differs from
   that origin's live set. Flow [i] is sourced at node [i] and live at its
   origin until it completes. *)
let sim_view_hashes_match_reference () =
  let topo = Topology.torus [| 4; 4; 4 |] in
  let h = Topology.host_count topo in
  let t = Sim.R2c2_sim.create (sim_cfg ~loss:0.02 ()) topo in
  staggered_permutation t topo;
  let diverged_samples = ref 0 and converged_samples = ref 0 in
  let sample () =
    let m = Sim.R2c2_sim.metrics t in
    let views = Array.init h (fun node -> Sim.R2c2_sim.node_view_ids t ~node) in
    let counts = Hashtbl.create 8 in
    Array.iter
      (fun ids ->
        let f = fnv_reference ids in
        Hashtbl.replace counts f (1 + Option.value ~default:0 (Hashtbl.find_opt counts f)))
      views;
    let modal = Util.Tbl.fold_sorted ~cmp:Int64.compare (fun _ n acc -> max n acc) counts 0 in
    Alcotest.(check int) "diverged nodes = reference" (h - modal)
      (Sim.R2c2_sim.diverged_nodes t);
    if h - modal > 0 then incr diverged_samples;
    let consistent = ref true in
    Array.iteri
      (fun node ids ->
        for root = 0 to h - 1 do
          let live = if Sim.Metrics.complete m (Sim.Metrics.find m root) then [] else [ root ] in
          if root <> node && fnv_reference (List.filter (( = ) root) ids) <> fnv_reference live
          then consistent := false
        done)
      views;
    if Sim.R2c2_sim.control_converged t then begin
      incr converged_samples;
      if not !consistent then Alcotest.fail "converged while a view slice differs from its origin"
    end
  in
  let ns = ref 0 in
  while Sim.Metrics.completed_count (Sim.R2c2_sim.metrics t) < h do
    ns := !ns + 25_000;
    Sim.R2c2_sim.run_engine ~until_ns:!ns t;
    sample ()
  done;
  Sim.R2c2_sim.run_engine t;
  sample ();
  Alcotest.(check bool) "some sample diverged" true (!diverged_samples > 0);
  Alcotest.(check bool) "some sample converged" true (!converged_samples > 0);
  Alcotest.(check bool) "converged at the end" true (Sim.R2c2_sim.control_converged t)

(* Byte-exact snapshot of a lossy Per_node run on a 4x4x4 torus: per-flow
   records, the goodput series and every sampled rate update. At 2%
   control loss the nodes' views disagree in most of the staggered
   permutation's epochs, up to 14 distinct believed flow sets in one.
   [recomputes] is left out: it counts allocations computed, which
   depends on how many senders share a set, not on what they apply. *)
let per_node_snapshot () =
  let topo = Topology.torus [| 4; 4; 4 |] in
  let t = Sim.R2c2_sim.create (sim_cfg ~loss:0.02 ()) topo in
  Sim.Metrics.set_goodput_bucket (Sim.R2c2_sim.metrics t) ~bucket_ns:10_000;
  staggered_permutation t topo;
  Sim.R2c2_sim.run_engine t;
  let r = Sim.R2c2_sim.results t in
  let buf = Buffer.create 16384 in
  List.iter
    (fun (f : Sim.Metrics.flow) ->
      Buffer.add_string buf
        (Printf.sprintf "flow %d %d->%d size=%d t0=%d tx=%d del=%d fin=%d ro=%d\n" f.id f.src
           f.dst f.size f.arrival_ns f.start_tx_ns f.delivered f.finish_ns f.reorder_max))
    (Sim.Metrics.all r.Sim.R2c2_sim.metrics);
  Array.iter
    (fun (ns, b) -> Buffer.add_string buf (Printf.sprintf "goodput %d %d\n" ns b))
    (Sim.Metrics.goodput_series r.Sim.R2c2_sim.metrics);
  List.iter
    (fun (ns, gbps) ->
      Buffer.add_string buf (Printf.sprintf "rate %d %.17g\n" ns (Util.Units.to_float gbps)))
    r.Sim.R2c2_sim.rate_updates;
  (Buffer.contents buf, r)

(* Golden pin of [per_node_snapshot], captured before the per-epoch
   allocations were shared between nodes with the same believed flow set:
   sharing them must not move a single rate or finish time. *)
let per_node_golden_pin () =
  let s, r = per_node_snapshot () in
  Alcotest.(check bool) "loss fired" true (r.Sim.R2c2_sim.ctrl_lost > 0);
  Alcotest.(check int) "all flows complete" 64
    (Sim.Metrics.completed_count r.Sim.R2c2_sim.metrics);
  Alcotest.(check int) "snapshot length" 19176 (String.length s);
  Alcotest.(check string) "snapshot digest" "00bb839ab499dac91fa67ef059c89903"
    (Digest.to_hex (Digest.string s))

(* Senders whose believed flow sets agree share one allocation per epoch.
   On this clean run views disagree only while a finish broadcast is in
   flight, so it computes 17 allocations where one per sender per dirty
   epoch made 393; a fallback to per-sender allocation fails both checks. *)
let per_node_shares_allocations () =
  let topo = Topology.torus [| 4; 4; 4 |] in
  let t = Sim.R2c2_sim.create (sim_cfg ()) topo in
  staggered_permutation t topo;
  Sim.R2c2_sim.run_engine t;
  let r = Sim.R2c2_sim.results t in
  let h = Topology.host_count topo in
  Alcotest.(check int) "all flows complete" h (Sim.Metrics.completed_count r.Sim.R2c2_sim.metrics);
  Alcotest.(check bool) "fewer allocations than senders" true (r.Sim.R2c2_sim.recomputes < h);
  Alcotest.(check int) "allocations computed" 17 r.Sim.R2c2_sim.recomputes

(* Two sorted id arrays with equal [Flow_sets] bucket hashes: [Hashtbl.hash]
   reads only the first ten ids, so sets that agree on those and differ
   later collide. *)
let bucket_hash_collision () =
  let k1 = Array.init 11 Fun.id in
  let k2 = Array.copy k1 in
  k2.(10) <- 12;
  (k1, k2)

let flow_set_memo_keys_on_exact_ids () =
  let k1, k2 = bucket_hash_collision () in
  Alcotest.(check bool) "distinct sets" true (k1 <> k2);
  Alcotest.(check int) "same bucket hash" (Hashtbl.hash k1) (Hashtbl.hash k2);
  let memo = Sim.R2c2_sim.Flow_sets.create 4 in
  Sim.R2c2_sim.Flow_sets.replace memo k1 "k1";
  Sim.R2c2_sim.Flow_sets.replace memo k2 "k2";
  Alcotest.(check int) "colliding sets are distinct keys" 2
    (Sim.R2c2_sim.Flow_sets.length memo);
  Alcotest.(check (option string)) "equal set hits" (Some "k1")
    (Sim.R2c2_sim.Flow_sets.find_opt memo (Array.copy k1));
  Alcotest.(check (option string)) "colliding set keeps its own value" (Some "k2")
    (Sim.R2c2_sim.Flow_sets.find_opt memo k2)

(* With a replay log too small to answer NACKs, the origin must fall back
   to full-state sync — and the rack still reconverges. *)
let evicted_replay_falls_back_to_sync () =
  let topo = Topology.torus [| 3; 3; 3 |] in
  let cfg = { (sim_cfg ~loss:0.05 ()) with Sim.R2c2_sim.bcast_log_cap = 1 } in
  let t = Sim.R2c2_sim.create cfg topo in
  permutation t topo ~size:120_000;
  Sim.R2c2_sim.run_engine t;
  let r = Sim.R2c2_sim.results t in
  let open Sim.R2c2_sim in
  Alcotest.(check bool) "full-state syncs happened" true (r.syncs_sent > 0);
  Alcotest.(check bool) "sync traffic accounted" true (r.sync_bytes > 0);
  Alcotest.(check int) "zero terminal divergence" 0 r.terminal_diverged;
  Alcotest.(check bool) "converged" true (Sim.R2c2_sim.control_converged t);
  Alcotest.(check int) "all flows complete" (Topology.host_count topo)
    (Sim.Metrics.completed_count r.metrics)

(* A dead node blackholes broadcast copies and digests; the counters must
   split the loss by plane and sum back to the total. *)
let blackhole_splits_control_and_data () =
  let topo = Topology.torus [| 3; 3; 3 |] in
  let t = Sim.R2c2_sim.create (sim_cfg ()) topo in
  permutation t topo ~size:200_000;
  Sim.R2c2_sim.fail_node_at t ~ns:100_000 13;
  Sim.R2c2_sim.run_engine t;
  let r = Sim.R2c2_sim.results t in
  let open Sim.R2c2_sim in
  Alcotest.(check int) "split sums to total" r.blackholed_bytes
    (r.blackholed_data_bytes + r.blackholed_ctrl_bytes);
  Alcotest.(check bool) "control bytes were blackholed" true (r.blackholed_ctrl_bytes > 0);
  Alcotest.(check int) "zero terminal divergence" 0 r.terminal_diverged

let suites =
  [
    ( "control-loss",
      [
        tc "reliability dedups on seq under loss" reliability_dedup_under_loss;
        tc "rbcast window orders and dedups" rbcast_window_orders_and_dedups;
        QCheck_alcotest.to_alcotest qcheck_window_table_matches_oracle;
        QCheck_alcotest.to_alcotest qcheck_set_hash_matches_reference;
        tc "view NACK repair heals all loss" view_nack_repair_heals_all_loss;
        tc "view batched repair heals all loss" view_batched_repair_heals_all_loss;
        tc "view dedups duplicates" view_dedups_duplicates;
        tc "watchdog repairs diverged view" watchdog_repairs_diverged_view;
        tc "loss EWMA scales headroom" loss_ewma_scales_headroom;
        tc "chaos is seed-deterministic" chaos_is_deterministic;
        tc "reconverges under 5% loss" reconverges_under_5pct_loss;
        tc "duplicates are absorbed" duplicates_are_absorbed;
        tc "identical allocations after 2% loss" identical_allocations_after_2pct_loss;
        tc "Per_node golden pin" per_node_golden_pin;
        tc "Per_node shares allocations" per_node_shares_allocations;
        tc "view hashes match the FNV reference" sim_view_hashes_match_reference;
        tc "flow-set memo keys on exact ids" flow_set_memo_keys_on_exact_ids;
        tc "evicted replay falls back to sync" evicted_replay_falls_back_to_sync;
        tc "blackhole splits control and data" blackhole_splits_control_and_data;
      ] );
  ]
