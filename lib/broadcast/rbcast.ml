(* Reliable-broadcast bookkeeping: per-(source, tree) sequence numbers on
   the sending side, receive windows with gap detection and dedup on the
   receiving side, and the live-flow set hash that anti-entropy digests
   carry. Pure data structures — timers, packets and topology live with the
   caller (R2c2_sim / Stack), which keeps this logic reusable by both the
   packet simulator and the application-level control plane. *)

(* -- live-flow set hash --------------------------------------------------- *)

(* A SplitMix64-style finaliser cut to 63 bits: an offset, then two
   xorshift-multiply rounds with odd multipliers. Every step is a
   bijection of the native int, and only id [-0x1e3779b97f4a7c15] maps
   to 0. *)
let mix id =
  let z = id + 0x1e3779b97f4a7c15 in
  let z = (z lxor (z lsr 30)) * 0x3f58476d1ce4e5b9 in
  let z = (z lxor (z lsr 27)) * 0x14d049bb133111eb in
  z lxor (z lsr 31)

let add_id tbl id v =
  let n = Hashtbl.length tbl in
  Hashtbl.replace tbl id v;
  if Hashtbl.length tbl > n then mix id else 0

let remove_id tbl id =
  let n = Hashtbl.length tbl in
  Hashtbl.remove tbl id;
  if Hashtbl.length tbl < n then -mix id else 0

(* -- origin (sender) side ------------------------------------------------- *)

type 'a origin = {
  trees : int;
  log_cap : int;
  next : int array;  (* per tree: next sequence number to assign *)
  logs : (int, 'a) Hashtbl.t array;  (* per tree: seq -> payload replay log *)
  live : (int, unit) Hashtbl.t;  (* authoritative live-flow id set *)
  mutable live_hash : int;  (* set hash of [live] *)
  mutable epoch : int;
  mutable inc : int;  (* incarnation: bumped by crash-restart, not by digests *)
}

let origin ?(log_cap = 65536) ~trees () =
  if trees < 1 then invalid_arg "Rbcast.origin: trees < 1";
  if log_cap < 1 then invalid_arg "Rbcast.origin: log_cap < 1";
  {
    trees;
    log_cap;
    next = Array.make trees 0;
    logs = Array.init trees (fun _ -> Hashtbl.create 16);
    live = Hashtbl.create 16;
    live_hash = 0;
    epoch = 0;
    inc = 0;
  }

let check_tree o tree =
  if tree < 0 || tree >= o.trees then invalid_arg "Rbcast: tree id out of range"

let send o ~tree payload =
  check_tree o tree;
  let seq = o.next.(tree) in
  o.next.(tree) <- seq + 1;
  Hashtbl.replace o.logs.(tree) seq payload;
  (* Dense sequence space: evicting [seq - cap] on every send bounds the
     log at [cap] entries without a scan. *)
  if seq >= o.log_cap then Hashtbl.remove o.logs.(tree) (seq - o.log_cap);
  seq

let last_seq o ~tree =
  check_tree o tree;
  o.next.(tree) - 1

let replay o ~tree ~seq =
  check_tree o tree;
  Hashtbl.find_opt o.logs.(tree) seq

let mark_live o id = o.live_hash <- o.live_hash + add_id o.live id ()
let mark_dead o id = o.live_hash <- o.live_hash + remove_id o.live id
let live_ids o = Array.to_list (Util.Tbl.sorted_keys ~cmp:Int.compare o.live)
let state_hash o = o.live_hash

let bump_epoch o =
  o.epoch <- o.epoch + 1;
  o.epoch

let epoch o = o.epoch

(* Crash-restart: the node lost every bit of its soft state, so the origin
   comes back cold — empty logs, sequence spaces at 0, no live flows —
   under a fresh incarnation. The incarnation, not the anti-entropy epoch
   (which [bump_epoch] advances every digest round), is what receive
   windows key their invalidation on: a window seeing a higher incarnation
   than its own drops itself and restarts from sequence 0. *)
let restart o =
  Array.fill o.next 0 (Array.length o.next) 0;
  Array.iter Hashtbl.reset o.logs;
  Hashtbl.reset o.live;
  o.live_hash <- 0;
  o.epoch <- o.epoch + 1;
  o.inc <- o.inc + 1;
  o.inc

let incarnation o = o.inc

(* -- receive windows: one flat table for every (origin, tree, receiver) --- *)

(* A receive window is four ints in an int block owned by its (origin,
   tree): the blocks are origin-major, so the windows that one root's
   broadcast or digest flood touches — every receiver of that (origin,
   tree) — sit next to each other in one [receivers * 4]-cell block. A
   block is allocated on first write; until then its windows read as
   fresh. Slot layout: *)
let w_next = 0 (* next expected sequence number *)
let w_hi = 1 (* highest sequence heard of (packets, digests, syncs); -1 none *)
let w_inc = 2 (* origin incarnation the window is keyed to *)
let w_flags = 3 (* duplicates * 2 + armed *)
let slot_words = 4

type 'a table = {
  trees : int;
  receivers : int;
  blocks : int array array;  (* origin * trees + tree -> block; [||] until used *)
  buffered : (int, (int, 'a) Hashtbl.t) Hashtbl.t;
      (* window id -> out-of-order buffer (seq -> payload); holds only
         windows with a gap, so the in-order path never probes it *)
  wipes : int array;  (* per receiver: crash/restart wipes so far *)
}

type verdict = Deliver | Duplicate | Buffered
type keying = Stale | Current | Rekeyed

let table ~origins ~trees ~receivers =
  if origins < 0 || trees < 1 || receivers < 1 then invalid_arg "Rbcast.table: bad dimensions";
  {
    trees;
    receivers;
    blocks = Array.make (origins * trees) [||];
    buffered = Hashtbl.create 16;
    wipes = Array.make receivers 0;
  }

let win tb ~origin ~tree ~receiver =
  if tree < 0 || tree >= tb.trees || receiver < 0 || receiver >= tb.receivers then
    invalid_arg "Rbcast.win: tree or receiver out of range";
  (((origin * tb.trees) + tree) * tb.receivers) + receiver

let reset_slot blk off =
  blk.(off + w_next) <- 0;
  blk.(off + w_hi) <- -1;
  blk.(off + w_inc) <- 0;
  blk.(off + w_flags) <- 0

(* The block holding window [w], allocated (every slot fresh) on first
   use; [off] below is the window's first cell in it. *)
let block tb w =
  let b = w / tb.receivers in
  let blk = tb.blocks.(b) in
  if Array.length blk > 0 then blk
  else begin
    let blk = Array.make (tb.receivers * slot_words) 0 in
    for r = 0 to tb.receivers - 1 do
      reset_slot blk (r * slot_words)
    done;
    tb.blocks.(b) <- blk;
    blk
  end

let off tb w = (w mod tb.receivers) * slot_words

(* Read one word without allocating the block: an unused window is fresh. *)
let peek tb w field ~fresh =
  let blk = tb.blocks.(w / tb.receivers) in
  if Array.length blk = 0 then fresh else blk.(off tb w + field)

let next_expected tb w = peek tb w w_next ~fresh:0
let highest tb w = peek tb w w_hi ~fresh:(-1)
let caught_up tb w = next_expected tb w > highest tb w
let incarnation_of tb w = peek tb w w_inc ~fresh:0
let duplicates tb w = peek tb w w_flags ~fresh:0 lsr 1

let pending_count tb w =
  match Hashtbl.find_opt tb.buffered w with
  | Some buf -> Hashtbl.length buf
  | None -> 0

let total_duplicates tb =
  Array.fold_left
    (fun acc blk ->
      let acc = ref acc in
      for r = 0 to (Array.length blk / slot_words) - 1 do
        acc := !acc + (blk.((r * slot_words) + w_flags) lsr 1)
      done;
      !acc)
    0 tb.blocks

(* Every wipe and re-key changes it: (wipes of the receiver, incarnation)
   only ever grows lexicographically, and incarnations stay below 2^31
   (digests already carry them in the upper half of a 63-bit word). *)
let generation tb w = (tb.wipes.(w mod tb.receivers) lsl 31) lor incarnation_of tb w

(* The stale-window guard of the crash-restart protocol: a window still keyed to a pre-crash incarnation MUST drop its state the
   moment it learns of a newer one, or the restarted origin's fresh
   sequence space collides with the old window — seq 0 of the new
   incarnation would be absorbed as a duplicate and never delivered. The
   duplicate count survives the re-key. *)
let observe_incarnation tb w ~inc =
  let cur = incarnation_of tb w in
  if inc < cur then Stale
  else if inc = cur then Current
  else begin
    let blk = block tb w and o = off tb w in
    blk.(o + w_next) <- 0;
    blk.(o + w_hi) <- -1;
    blk.(o + w_inc) <- inc;
    blk.(o + w_flags) <- blk.(o + w_flags) land lnot 1;
    Hashtbl.remove tb.buffered w;
    Rekeyed
  end

(* A newer incarnation re-keys every tree of the origin at the receiver,
   not just the window it arrived on: a sibling left on the old
   incarnation keeps its pre-crash [hi] and holds the receiver
   sequence-behind forever. Since every re-key goes through here, the
   trees of one origin at one receiver are always keyed alike. *)
let observe_origin_incarnation tb w ~inc =
  match observe_incarnation tb w ~inc with
  | (Stale | Current) as k -> k
  | Rekeyed ->
      let receiver = w mod tb.receivers in
      let tree0 = w / tb.receivers / tb.trees * tb.trees in
      for tree = 0 to tb.trees - 1 do
        ignore (observe_incarnation tb (((tree0 + tree) * tb.receivers) + receiver) ~inc)
      done;
      Rekeyed

let advertise tb w ~last =
  if last > highest tb w then (block tb w).(off tb w + w_hi) <- last

let receive tb w ~seq payload =
  if seq < 0 then invalid_arg "Rbcast.receive: negative seq";
  let blk = block tb w and o = off tb w in
  if seq > blk.(o + w_hi) then blk.(o + w_hi) <- seq;
  let next = blk.(o + w_next) in
  if seq = next then begin
    blk.(o + w_next) <- next + 1;
    Deliver
  end
  else if seq < next then begin
    blk.(o + w_flags) <- blk.(o + w_flags) + 2;
    Duplicate
  end
  else begin
    let buf =
      match Hashtbl.find_opt tb.buffered w with
      | Some buf -> buf
      | None ->
          let buf = Hashtbl.create 8 in
          Hashtbl.replace tb.buffered w buf;
          buf
    in
    if Hashtbl.mem buf seq then begin
      blk.(o + w_flags) <- blk.(o + w_flags) + 2;
      Duplicate
    end
    else begin
      Hashtbl.replace buf seq payload;
      Buffered
    end
  end

(* Every buffered sequence lies in (next, hi], so a window past its [hi]
   has nothing buffered and the buffer table is not probed. *)
let take_next tb w =
  let next = next_expected tb w in
  if next > highest tb w then None
  else
    match Hashtbl.find_opt tb.buffered w with
    | None -> None
    | Some buf -> (
        match Hashtbl.find_opt buf next with
        | None -> None
        | Some p ->
            Hashtbl.remove buf next;
            if Hashtbl.length buf = 0 then Hashtbl.remove tb.buffered w;
            let blk = block tb w in
            blk.(off tb w + w_next) <- next + 1;
            Some p)

let missing tb w =
  let next = next_expected tb w and hi = highest tb w in
  match Hashtbl.find_opt tb.buffered w with
  | None -> if next <= hi then [ (next, hi) ] else []
  | Some buf ->
      let out = ref [] in
      let from = ref (-1) in
      for s = next to hi do
        if Hashtbl.mem buf s then begin
          if !from >= 0 then begin
            out := (!from, s - 1) :: !out;
            from := -1
          end
        end
        else if !from < 0 then from := s
      done;
      if !from >= 0 then out := (!from, hi) :: !out;
      List.rev !out

let fast_forward tb w ~next =
  advertise tb w ~last:(next - 1);
  if next > next_expected tb w then begin
    (* Everything below [next] is already reflected in the synced state;
       buffered events at or above it are strictly newer and still apply. *)
    (match Hashtbl.find_opt tb.buffered w with
    | Some buf ->
        Array.iter
          (fun s -> if s < next then Hashtbl.remove buf s)
          (Util.Tbl.sorted_keys ~cmp:Int.compare buf);
        if Hashtbl.length buf = 0 then Hashtbl.remove tb.buffered w
    | None -> ());
    (block tb w).(off tb w + w_next) <- next
  end

let arm tb w =
  let blk = block tb w and o = off tb w in
  let flags = blk.(o + w_flags) in
  if flags land 1 = 1 then false
  else begin
    blk.(o + w_flags) <- flags lor 1;
    true
  end

let disarm tb w =
  let blk = block tb w and o = off tb w in
  blk.(o + w_flags) <- blk.(o + w_flags) land lnot 1

let wipe_receiver tb ~receiver =
  tb.wipes.(receiver) <- tb.wipes.(receiver) + 1;
  Array.iteri
    (fun b blk ->
      if Array.length blk > 0 then begin
        reset_slot blk (receiver * slot_words);
        Hashtbl.remove tb.buffered ((b * tb.receivers) + receiver)
      end)
    tb.blocks
