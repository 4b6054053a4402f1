(* A peer node's replica of one source's slice of the traffic matrix,
   rebuilt purely from that source's sequenced broadcast stream. The owner
   of the authoritative state is a [Stack]; a [View] is what some other
   node in the rack believes, with the transport between them allowed to
   lose, reorder and duplicate packets. Per-tree receive windows (an
   [Rbcast.table] with one origin and one receiver) deliver events
   exactly once in order; digests from the source expose losses the
   stream itself cannot reveal (a dropped final packet); a state-hash
   mismatch while sequence-caught-up marks the view as diverged, to be
   repaired by a full-state {!sync}. *)

type t = {
  trees : int;
  windows : (Wire.broadcast * int) Rbcast.table;
  flows : (int, Wire.broadcast) Hashtbl.t;  (* believed-live id -> record *)
  mutable hash : int;  (* Rbcast set hash of [flows]' ids *)
  mutable applied : int;
}

let create ~trees () =
  if trees < 1 then invalid_arg "View.create: trees < 1";
  {
    trees;
    windows = Rbcast.table ~origins:1 ~trees ~receivers:1;
    flows = Hashtbl.create 32;
    hash = 0;
    applied = 0;
  }

let win t tree = Rbcast.win t.windows ~origin:0 ~tree ~receiver:0

let apply_event t (pkt, flow) =
  t.applied <- t.applied + 1;
  match pkt.Wire.event with
  | Wire.Flow_finish -> t.hash <- t.hash + Rbcast.remove_id t.flows flow
  | Wire.Flow_start | Wire.Demand_update | Wire.Route_change ->
      (* Every event carries the full flow record, so a view can
         (re)materialize a flow from any of them. *)
      t.hash <- t.hash + Rbcast.add_id t.flows flow pkt

let observe_incarnation t ~inc =
  match Rbcast.observe_origin_incarnation t.windows (win t 0) ~inc with
  | Rbcast.Stale -> `Stale
  | Rbcast.Current -> `Current
  | Rbcast.Rekeyed ->
      (* The source restarted: everything learned from its old life —
         window positions, advertised highs, the believed flow set — is
         void. Every window re-keyed above. *)
      Hashtbl.reset t.flows;
      t.hash <- 0;
      `Reset

type verdict =
  | Applied of int  (* events folded into the matrix, in order *)
  | Duplicate
  | Buffered  (* ahead of a gap; repair should be requested *)
  | Malformed of string

(* Apply the events buffered behind the one just delivered on [tree];
   returns how many. *)
let rec drain t tree n =
  match Rbcast.take_next t.windows (win t tree) with
  | Some ev ->
      apply_event t ev;
      drain t tree (n + 1)
  | None -> n

let apply_seq t pkt flow seq =
  let tree = pkt.Wire.tree in
  if tree < 0 || tree >= t.trees then Malformed "tree id out of range"
  else
    match Rbcast.receive t.windows (win t tree) ~seq (pkt, flow) with
    | Rbcast.Deliver ->
        apply_event t (pkt, flow);
        Applied (drain t tree 1)
    | Rbcast.Duplicate -> Duplicate
    | Rbcast.Buffered -> Buffered

let apply t bytes =
  match Wire.decode_seq_broadcast bytes with
  | Error e -> Malformed e
  | Ok (pkt, flow, seq) -> apply_seq t pkt flow seq

let apply_batch t bytes =
  match Wire.decode_batch bytes with
  | Error e -> Error e
  | Ok items ->
      Ok
        (List.map
           (function
             | Wire.Item_seq_broadcast (pkt, flow, seq) -> apply_seq t pkt flow seq
             | Wire.Item_broadcast _ | Wire.Item_digest _ | Wire.Item_nack _ ->
                 (* Repair batches carry sequenced events only; anything
                    else is a framing mistake, reported in place. *)
                 Malformed "batch item is not a sequenced broadcast")
           items)

let flow_ids t = Array.to_list (Util.Tbl.sorted_keys ~cmp:Int.compare t.flows)
let flow t id = Hashtbl.find_opt t.flows id
let flow_count t = Hashtbl.length t.flows
let matrix_hash t = t.hash
let applied t = t.applied

let duplicates t = Rbcast.total_duplicates t.windows

let check_tree t tree =
  if tree < 0 || tree >= t.trees then invalid_arg "View: tree id out of range"

let next_expected t ~tree =
  check_tree t tree;
  Rbcast.next_expected t.windows (win t tree)

let missing t ~tree =
  check_tree t tree;
  Rbcast.missing t.windows (win t tree)

let caught_up t =
  let ok = ref true in
  for tree = 0 to t.trees - 1 do
    if not (Rbcast.caught_up t.windows (win t tree)) then ok := false
  done;
  !ok

type digest_verdict =
  | Synced
  | Gaps of (int * int) list  (* inclusive missing ranges to NACK *)
  | Diverged  (* caught up yet hashing differently: needs a full sync *)

let observe_digest t (d : Wire.digest) =
  check_tree t d.Wire.dtree;
  let tree = d.Wire.dtree in
  Rbcast.advertise t.windows (win t tree) ~last:d.Wire.last_seq;
  if Rbcast.next_expected t.windows (win t tree) <= d.Wire.last_seq then
    Gaps (missing t ~tree)
  else if caught_up t && Int64.of_int t.hash <> d.Wire.state_hash then Diverged
  else Synced

let sync t ~flows ~last_seqs =
  if Array.length last_seqs <> t.trees then invalid_arg "View.sync: last_seqs";
  Hashtbl.reset t.flows;
  t.hash <- 0;
  List.iter (fun (id, pkt) -> t.hash <- t.hash + Rbcast.add_id t.flows id pkt) flows;
  Array.iteri
    (fun tree last ->
      Rbcast.fast_forward t.windows (win t tree) ~next:(last + 1);
      (* Buffered events beyond the sync are strictly newer; apply them. *)
      ignore (drain t tree 0))
    last_seqs
