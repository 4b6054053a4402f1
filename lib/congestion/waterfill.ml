(* Boundary types are Units-dimensioned (byte_rate / fraction, see the
   mli); the algorithms below unwrap once per use with the free [:> float]
   coercion and run on raw floats — identical code to the pre-Units
   version, bit for bit. *)
module U = Util.Units

type flow = {
  id : int;
  weight : float;
  priority : int;
  demand : U.byte_rate option;
  links : (int * U.fraction) array;
}

let flow ?(weight = 1.0) ?(priority = 0) ?demand ~id links =
  { id; weight; priority; demand; links }

let eps = 1e-9

let validate flows capacities =
  Array.iter
    (fun f ->
      if f.weight <= 0.0 then invalid_arg "Waterfill: non-positive weight";
      (match f.demand with
      | Some d when (d : U.byte_rate :> float) < 0.0 -> invalid_arg "Waterfill: negative demand"
      | _ -> ());
      Array.iter
        (fun (l, frac) ->
          if (frac : U.fraction :> float) <= 0.0 then invalid_arg "Waterfill: non-positive fraction";
          if l < 0 || l >= Array.length capacities then
            invalid_arg "Waterfill: link id out of range")
        f.links)
    flows

(* One priority round of progressive filling over [indices], mutating
   [remaining] capacity and writing into [rates]. *)
let fill_round ~remaining ~rates flows indices =
  let nl = Array.length remaining in
  let frozen = Array.make (Array.length flows) false in
  (* Per-link sum of weight * fraction over unfrozen flows of this round. *)
  let wsum = Array.make nl 0.0 in
  let on_link = Array.make nl [] in
  List.iter
    (fun i ->
      let f = flows.(i) in
      Array.iter
        (fun (l, frac) ->
          wsum.(l) <- wsum.(l) +. (f.weight *. (frac : U.fraction :> float));
          on_link.(l) <- i :: on_link.(l))
        f.links)
    indices;
  let active = ref (List.length indices) in
  let t = ref 0.0 in
  (* Demand-limited flows freeze at fill level demand/weight. *)
  let demand_level i =
    match flows.(i).demand with
    | Some d -> Some ((d : U.byte_rate :> float) /. flows.(i).weight)
    | None -> None
  in
  while !active > 0 do
    (* Smallest fill increment that saturates a link or meets a demand. *)
    let dt = ref infinity in
    for l = 0 to nl - 1 do
      if wsum.(l) > eps then begin
        let step = remaining.(l) /. wsum.(l) in
        if step < !dt then dt := step
      end
    done;
    List.iter
      (fun i ->
        if not frozen.(i) then
          match demand_level i with
          | Some lvl when lvl -. !t < !dt -> dt := lvl -. !t
          | _ -> ())
      indices;
    if !dt = infinity then begin
      (* No constraining link and no demand: flows with no links; give 0. *)
      List.iter
        (fun i ->
          if not frozen.(i) then begin
            frozen.(i) <- true;
            rates.(i) <- flows.(i).weight *. !t;
            decr active
          end)
        indices
    end
    else begin
      let dt = max 0.0 !dt in
      t := !t +. dt;
      (* Drain capacity at the advanced fill level. *)
      for l = 0 to nl - 1 do
        if wsum.(l) > eps then remaining.(l) <- remaining.(l) -. (dt *. wsum.(l))
      done;
      (* Freeze flows on saturated links. *)
      for l = 0 to nl - 1 do
        if wsum.(l) > eps && remaining.(l) <= eps then begin
          List.iter
            (fun i ->
              if not frozen.(i) then begin
                frozen.(i) <- true;
                rates.(i) <- flows.(i).weight *. !t;
                decr active;
                Array.iter
                  (fun (l', frac) ->
                    wsum.(l') <- wsum.(l') -. (flows.(i).weight *. (frac : U.fraction :> float)))
                  flows.(i).links
              end)
            on_link.(l);
          remaining.(l) <- 0.0
        end
      done;
      (* Freeze flows whose demand is met. *)
      List.iter
        (fun i ->
          if not frozen.(i) then
            match demand_level i with
            | Some lvl when lvl <= !t +. eps -> begin
                frozen.(i) <- true;
                rates.(i) <- flows.(i).weight *. lvl;
                decr active;
                Array.iter
                  (fun (l', frac) ->
                    wsum.(l') <- wsum.(l') -. (flows.(i).weight *. (frac : U.fraction :> float)))
                  flows.(i).links
              end
            | _ -> ())
        indices
    end
  done

let by_priority flows =
  let by_prio = Hashtbl.create 4 in
  Array.iteri
    (fun i f ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt by_prio f.priority) in
      Hashtbl.replace by_prio f.priority (i :: cur))
    flows;
  let prios = Util.Tbl.sorted_keys ~cmp:Int.compare by_prio in
  List.map (fun p -> List.rev (Hashtbl.find by_prio p)) (Array.to_list prios)

let headroom_raw = function
  | Some h ->
      let h = (h : U.fraction :> float) in
      if h < 0.0 || h >= 1.0 then invalid_arg "Waterfill: headroom out of range";
      h
  | None -> 0.0

let allocate_reference ?headroom ~capacities flows =
  let headroom = headroom_raw headroom in
  let capacities = U.floats_of capacities in
  validate flows capacities;
  let rates = Array.make (Array.length flows) 0.0 in
  let remaining = Array.map (fun c -> c *. (1.0 -. headroom)) capacities in
  List.iter (fun idx -> fill_round ~remaining ~rates flows idx) (by_priority flows);
  U.of_floats rates

let link_utilization ~capacities flows rates =
  let capacities = U.floats_of capacities in
  let rates = U.floats_of rates in
  let load = Array.make (Array.length capacities) 0.0 in
  Array.iteri
    (fun i f ->
      Array.iter
        (fun (l, frac) -> load.(l) <- load.(l) +. (rates.(i) *. (frac : U.fraction :> float)))
        f.links)
    flows;
  U.of_floats
    (Array.mapi (fun l x -> if capacities.(l) > 0.0 then x /. capacities.(l) else 0.0) load)

(* -- efficient variant (§4.2): the one event-driven kernel --------------- *)

(* Epoch recomputation state that lives across calls; [allocate] below is
   one fresh run of it. Flows are rows of a CSR (compressed sparse row)
   layout: per-row metadata in flat arrays plus one shared (link id,
   fraction) pool indexed by [foff]/[flen]. Flow open/close/demand/reroute
   events patch rows and mark the state dirty; a clean [allocate] is O(1)
   and allocation-free, a dirty one reuses every buffer. Link storage is
   append-only with swap-removed rows leaving garbage; the pool is repacked
   when more than half of it is dead. *)
module Inc = struct
  type t = {
    capacities : float array;
    mutable headroom : float;
    (* per-class headroom reservation (overload backpressure): a capacity
       fraction withheld from every class with priority >= reserve_prio,
       kept free for the classes above the threshold. 0.0 = disabled. *)
    mutable reserve_prio : int;
    mutable reserve_frac : float;
    row_of : (int, int) Hashtbl.t;  (* flow id -> row *)
    (* CSR rows: rows 0..nrows-1 are live, swap-remove keeps them dense. *)
    mutable nrows : int;
    mutable fid : int array;
    mutable fweight : float array;
    mutable fprio : int array;
    mutable fdemand : float array;  (* nan = network-limited *)
    mutable foff : int array;
    mutable flen : int array;
    (* shared link pool *)
    mutable lnk_id : int array;
    mutable lnk_frac : float array;
    mutable lnk_used : int;  (* append watermark *)
    mutable lnk_live : int;  (* sum of flen over live rows *)
    (* arena: waterfill working buffers, reused across epochs *)
    mutable rates : float array;  (* per row; survives swap-remove *)
    mutable frozen : bool array;  (* per row *)
    mutable order : int array;  (* rows sorted by (priority, insertion) *)
    mutable round_of : int array;  (* per row: rank of its priority *)
    remaining : float array;  (* per link *)
    wsum : float array;
    last_t : float array;
    queued : bool array;
    link_start : int array;  (* transpose row starts, nl + 1 *)
    link_fill : int array;
    mutable link_rows : int array;  (* link -> rows, rebuilt in place *)
    (* min-heap with int payload: link l => l, demand of row r => -(r+1) *)
    mutable hkeys : float array;
    mutable hvals : int array;
    mutable hlen : int;
    mutable heap_ops : int;  (* pushes + pops over the state's lifetime *)
    mutable prio_counts : int array;  (* counting-sort buffer *)
    mutable dirty : bool;
    mutable computed : bool;
  }

  (* A state with room for [rows] flows and [links] (flow, link)
     incidences before any buffer has to grow. *)
  let sized ~rows ~links ?headroom ~capacities () =
    let headroom = headroom_raw headroom in
    let capacities = U.floats_of capacities in
    let nl = Array.length capacities in
    let rows = max 1 rows and links = max 1 links in
    (* at most one entry per loaded link plus one per demand-capped row *)
    let heap = min nl links + rows in
    {
      capacities = Array.copy capacities;
      headroom;
      reserve_prio = 0;
      reserve_frac = 0.0;
      row_of = Hashtbl.create rows;
      nrows = 0;
      fid = Array.make rows 0;
      fweight = Array.make rows 0.0;
      fprio = Array.make rows 0;
      fdemand = Array.make rows Float.nan;
      foff = Array.make rows 0;
      flen = Array.make rows 0;
      lnk_id = Array.make links 0;
      lnk_frac = Array.make links 0.0;
      lnk_used = 0;
      lnk_live = 0;
      rates = Array.make rows 0.0;
      frozen = Array.make rows false;
      order = Array.make rows 0;
      round_of = Array.make rows 0;
      remaining = Array.make nl 0.0;
      wsum = Array.make nl 0.0;
      last_t = Array.make nl 0.0;
      queued = Array.make nl false;
      link_start = Array.make (nl + 1) 0;
      link_fill = Array.make (max nl 1) 0;
      link_rows = Array.make links 0;
      hkeys = Array.make heap 0.0;
      hvals = Array.make heap 0;
      hlen = 0;
      heap_ops = 0;
      prio_counts = Array.make 8 0;
      dirty = false;
      computed = false;
    }

  let create ?headroom ~capacities () = sized ~rows:16 ~links:64 ?headroom ~capacities ()

  let live_flows t = t.nrows
  let is_dirty t = t.dirty || not t.computed
  let heap_ops t = t.heap_ops

  let set_headroom t h =
    let h = (h : U.fraction :> float) in
    if h < 0.0 || h >= 1.0 then invalid_arg "Waterfill: headroom out of range";
    if h <> t.headroom then begin
      t.headroom <- h;
      t.dirty <- true
    end

  let set_class_reserve t ~priority ~reserve =
    let r = (reserve : U.fraction :> float) in
    if priority < 0 then invalid_arg "Waterfill: negative reserve priority";
    if r < 0.0 || r >= 1.0 then invalid_arg "Waterfill: class reserve out of range";
    if r <> t.reserve_frac || priority <> t.reserve_prio then begin
      t.reserve_prio <- priority;
      t.reserve_frac <- r;
      t.dirty <- true
    end

  let mem t ~id = Hashtbl.mem t.row_of id

  let row t id =
    match Hashtbl.find_opt t.row_of id with
    | Some r -> r
    | None -> invalid_arg "Waterfill.Inc: unknown flow id"

  let grow_rows t =
    let n = Array.length t.fid in
    let gi a = Array.append a (Array.make n 0) in
    let gf a = Array.append a (Array.make n 0.0) in
    t.fid <- gi t.fid;
    t.fweight <- gf t.fweight;
    t.fprio <- gi t.fprio;
    t.fdemand <- Array.append t.fdemand (Array.make n Float.nan);
    t.foff <- gi t.foff;
    t.flen <- gi t.flen;
    t.rates <- gf t.rates;
    t.frozen <- Array.append t.frozen (Array.make n false);
    t.order <- gi t.order;
    t.round_of <- gi t.round_of

  (* Make room for [n] more pool entries: repack live rows into fresh
     arrays, dropping the garbage left by removed/relinked rows. Amortized
     over churn; never reached by a steady-state epoch. *)
  let ensure_links t n =
    if t.lnk_used + n > Array.length t.lnk_id then begin
      let cap = max (Array.length t.lnk_id) (max 64 (2 * (t.lnk_live + n))) in
      let id' = Array.make cap 0 and frac' = Array.make cap 0.0 in
      let pos = ref 0 in
      for r = 0 to t.nrows - 1 do
        let off = t.foff.(r) and len = t.flen.(r) in
        (* rows emptied by set_links/add_flow may carry a stale offset *)
        if len > 0 then begin
          Array.blit t.lnk_id off id' !pos len;
          Array.blit t.lnk_frac off frac' !pos len
        end;
        t.foff.(r) <- !pos;
        pos := !pos + len
      done;
      t.lnk_id <- id';
      t.lnk_frac <- frac';
      t.lnk_used <- !pos
    end

  let validate_links t links =
    let nl = Array.length t.capacities in
    Array.iter
      (fun (l, frac) ->
        if (frac : U.fraction :> float) <= 0.0 then
          invalid_arg "Waterfill: non-positive fraction";
        if l < 0 || l >= nl then invalid_arg "Waterfill: link id out of range")
      links

  let write_links t r links =
    let n = Array.length links in
    ensure_links t n;
    t.foff.(r) <- t.lnk_used;
    Array.iteri
      (fun j (l, frac) ->
        t.lnk_id.(t.lnk_used + j) <- l;
        t.lnk_frac.(t.lnk_used + j) <- (frac : U.fraction :> float))
      links;
    t.flen.(r) <- n;
    t.lnk_used <- t.lnk_used + n;
    t.lnk_live <- t.lnk_live + n

  let add_flow ?(weight = 1.0) ?(priority = 0) ?demand t ~id links =
    if weight <= 0.0 then invalid_arg "Waterfill: non-positive weight";
    (match demand with
    | Some d when (d : U.byte_rate :> float) < 0.0 ->
        invalid_arg "Waterfill: negative demand"
    | _ -> ());
    validate_links t links;
    if Hashtbl.mem t.row_of id then invalid_arg "Waterfill.Inc: duplicate flow id";
    if t.nrows = Array.length t.fid then grow_rows t;
    let r = t.nrows in
    t.nrows <- r + 1;
    t.fid.(r) <- id;
    t.fweight.(r) <- weight;
    t.fprio.(r) <- priority;
    t.fdemand.(r) <- (match demand with Some d -> (d : U.byte_rate :> float) | None -> Float.nan);
    t.rates.(r) <- 0.0;
    t.flen.(r) <- 0;
    write_links t r links;
    Hashtbl.replace t.row_of id r;
    t.dirty <- true

  let remove_flow t ~id =
    let r = row t id in
    t.lnk_live <- t.lnk_live - t.flen.(r);
    let last = t.nrows - 1 in
    if r <> last then begin
      t.fid.(r) <- t.fid.(last);
      t.fweight.(r) <- t.fweight.(last);
      t.fprio.(r) <- t.fprio.(last);
      t.fdemand.(r) <- t.fdemand.(last);
      t.foff.(r) <- t.foff.(last);
      t.flen.(r) <- t.flen.(last);
      t.rates.(r) <- t.rates.(last);
      Hashtbl.replace t.row_of t.fid.(r) r
    end;
    t.nrows <- last;
    Hashtbl.remove t.row_of id;
    t.dirty <- true

  let set_demand t ~id demand =
    let r = row t id in
    let d = match demand with Some d -> (d : U.byte_rate :> float) | None -> Float.nan in
    (match demand with
    | Some d when (d : U.byte_rate :> float) < 0.0 -> invalid_arg "Waterfill: negative demand"
    | _ -> ());
    let cur = t.fdemand.(r) in
    let unchanged = (Float.is_nan d && Float.is_nan cur) || d = cur in
    if not unchanged then begin
      t.fdemand.(r) <- d;
      t.dirty <- true
    end

  let set_links t ~id links =
    validate_links t links;
    let r = row t id in
    let n = Array.length links in
    if n <= t.flen.(r) then begin
      (* Fits in place; the tail of the old row becomes garbage. *)
      let off = t.foff.(r) in
      Array.iteri
        (fun j (l, frac) ->
          t.lnk_id.(off + j) <- l;
          t.lnk_frac.(off + j) <- (frac : U.fraction :> float))
        links;
      t.lnk_live <- t.lnk_live - t.flen.(r) + n;
      t.flen.(r) <- n
    end
    else begin
      t.lnk_live <- t.lnk_live - t.flen.(r);
      t.flen.(r) <- 0;
      write_links t r links
    end;
    t.dirty <- true

  (* -- heap: float keys, int payloads, buffers reused across epochs -- *)

  let sift_up t =
    let i = ref (t.hlen - 1) in
    while !i > 0 && t.hkeys.((!i - 1) / 2) > t.hkeys.(!i) do
      let p = (!i - 1) / 2 in
      let k = t.hkeys.(p) and v' = t.hvals.(p) in
      t.hkeys.(p) <- t.hkeys.(!i);
      t.hvals.(p) <- t.hvals.(!i);
      t.hkeys.(!i) <- k;
      t.hvals.(!i) <- v';
      i := p
    done

  (* Inlined so the float key is never boxed across a call. *)
  let[@inline] heap_push t key v =
    t.heap_ops <- t.heap_ops + 1;
    if t.hlen = Array.length t.hkeys then begin
      t.hkeys <- Array.append t.hkeys (Array.make t.hlen 0.0);
      t.hvals <- Array.append t.hvals (Array.make t.hlen 0)
    end;
    t.hkeys.(t.hlen) <- key;
    t.hvals.(t.hlen) <- v;
    t.hlen <- t.hlen + 1;
    sift_up t

  (* Removes the minimum of a non-empty heap and returns its payload;
     callers read its key from [hkeys.(0)] first. *)
  let heap_pop t =
    t.heap_ops <- t.heap_ops + 1;
    let v = t.hvals.(0) in
    t.hlen <- t.hlen - 1;
    if t.hlen > 0 then begin
      t.hkeys.(0) <- t.hkeys.(t.hlen);
      t.hvals.(0) <- t.hvals.(t.hlen);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let s = ref !i in
        if l < t.hlen && t.hkeys.(l) < t.hkeys.(!s) then s := l;
        if r < t.hlen && t.hkeys.(r) < t.hkeys.(!s) then s := r;
        if !s = !i then continue := false
        else begin
          let k = t.hkeys.(!s) and v' = t.hvals.(!s) in
          t.hkeys.(!s) <- t.hkeys.(!i);
          t.hvals.(!s) <- t.hvals.(!i);
          t.hkeys.(!i) <- k;
          t.hvals.(!i) <- v';
          i := !s
        end
      done
    end;
    v

  (* Stable counting sort of live rows by priority into [order]; also
     assigns [round_of] (the rank of each row's priority). Falls back to a
     comparison sort if the priority range is degenerate. *)
  let sort_rounds t =
    let nf = t.nrows in
    let pmin = ref max_int and pmax = ref min_int in
    for r = 0 to nf - 1 do
      if t.fprio.(r) < !pmin then pmin := t.fprio.(r);
      if t.fprio.(r) > !pmax then pmax := t.fprio.(r)
    done;
    let range = !pmax - !pmin + 1 in
    if range <= 4096 then begin
      if Array.length t.prio_counts < range + 1 then t.prio_counts <- Array.make (2 * range) 0;
      Array.fill t.prio_counts 0 range 0;
      for r = 0 to nf - 1 do
        let p = t.fprio.(r) - !pmin in
        t.prio_counts.(p) <- t.prio_counts.(p) + 1
      done;
      (* exclusive prefix sums = segment starts *)
      let acc = ref 0 in
      for p = 0 to range - 1 do
        let c = t.prio_counts.(p) in
        t.prio_counts.(p) <- !acc;
        acc := !acc + c
      done;
      for r = 0 to nf - 1 do
        let p = t.fprio.(r) - !pmin in
        t.order.(t.prio_counts.(p)) <- r;
        t.prio_counts.(p) <- t.prio_counts.(p) + 1
      done
    end
    else begin
      (* Pathological priority spread: pay one comparison sort. *)
      let tmp = Array.sub t.order 0 nf in
      Array.iteri (fun k _ -> tmp.(k) <- k) tmp;
      Array.sort
        (fun a b ->
          let c = compare t.fprio.(a) t.fprio.(b) in
          if c <> 0 then c else compare a b)
        tmp;
      Array.blit tmp 0 t.order 0 nf
    end;
    let round = ref (-1) in
    let prev = ref min_int in
    for k = 0 to nf - 1 do
      let r = t.order.(k) in
      if t.fprio.(r) <> !prev then begin
        incr round;
        prev := t.fprio.(r)
      end;
      t.round_of.(r) <- !round
    done

  (* Rebuild the link -> rows transpose in place (counting pass + fill). *)
  let build_transpose t =
    let nl = Array.length t.capacities in
    Array.fill t.link_fill 0 nl 0;
    for r = 0 to t.nrows - 1 do
      for j = t.foff.(r) to t.foff.(r) + t.flen.(r) - 1 do
        let l = t.lnk_id.(j) in
        t.link_fill.(l) <- t.link_fill.(l) + 1
      done
    done;
    let acc = ref 0 in
    for l = 0 to nl - 1 do
      t.link_start.(l) <- !acc;
      acc := !acc + t.link_fill.(l)
    done;
    t.link_start.(nl) <- !acc;
    if Array.length t.link_rows < !acc then t.link_rows <- Array.make (2 * !acc) 0;
    Array.blit t.link_start 0 t.link_fill 0 nl;
    for r = 0 to t.nrows - 1 do
      for j = t.foff.(r) to t.foff.(r) + t.flen.(r) - 1 do
        let l = t.lnk_id.(j) in
        t.link_rows.(t.link_fill.(l)) <- r;
        t.link_fill.(l) <- t.link_fill.(l) + 1
      done
    done

  (* Lazy per-link settlement and freezing, inlined like [heap_push] so
     fill levels never cross a call boxed. *)
  let[@inline] settle t l lvl =
    if lvl > t.last_t.(l) then begin
      t.remaining.(l) <-
        Float.max 0.0 (t.remaining.(l) -. (t.wsum.(l) *. (lvl -. t.last_t.(l))));
      t.last_t.(l) <- lvl
    end

  let[@inline] sat_level t l =
    if t.wsum.(l) > eps then t.last_t.(l) +. (t.remaining.(l) /. t.wsum.(l)) else infinity

  (* Freezes row [r] at fill level [lvl]; false if it already was. *)
  let[@inline] freeze t r lvl =
    if t.frozen.(r) then false
    else begin
      t.frozen.(r) <- true;
      t.rates.(r) <- t.fweight.(r) *. lvl;
      for j = t.foff.(r) to t.foff.(r) + t.flen.(r) - 1 do
        let l = t.lnk_id.(j) in
        settle t l lvl;
        t.wsum.(l) <- Float.max 0.0 (t.wsum.(l) -. (t.fweight.(r) *. t.lnk_frac.(j)))
      done;
      true
    end

  (* One priority round over order[lo..hi), event-driven: a heap orders
     link saturations and demand caps by fill level. Each link keeps exactly
     ONE heap entry whose key is a lower bound on its true saturation level
     (the level can only grow as other flows freeze and stop loading the
     link). On pop the true level is recomputed: if it moved, the entry is
     re-inserted at the new key; otherwise the link saturates and its flows
     freeze. Keeping the heap at O(links) entries keeps every sift in cache,
     which is what makes this the fast variant. The transpose spans all
     rounds, so the saturation scan skips rows of other rounds
     ([round_of]); earlier rounds are frozen, later ones not yet filling. *)
  let round_inc t ~round lo hi =
    let nl = Array.length t.capacities in
    Array.fill t.wsum 0 nl 0.0;
    Array.fill t.last_t 0 nl 0.0;
    Array.fill t.queued 0 nl false;
    t.hlen <- 0;
    for k = lo to hi - 1 do
      let r = t.order.(k) in
      for j = t.foff.(r) to t.foff.(r) + t.flen.(r) - 1 do
        let l = t.lnk_id.(j) in
        t.wsum.(l) <- t.wsum.(l) +. (t.fweight.(r) *. t.lnk_frac.(j))
      done
    done;
    for k = lo to hi - 1 do
      let r = t.order.(k) in
      for j = t.foff.(r) to t.foff.(r) + t.flen.(r) - 1 do
        let l = t.lnk_id.(j) in
        if not t.queued.(l) then begin
          t.queued.(l) <- true;
          (* [sat_level] spelled out: its if-joined result would be boxed. *)
          if t.wsum.(l) > eps then heap_push t (t.last_t.(l) +. (t.remaining.(l) /. t.wsum.(l))) l
          else heap_push t infinity l
        end
      done;
      if not (Float.is_nan t.fdemand.(r)) then
        heap_push t (t.fdemand.(r) /. t.fweight.(r)) (-(r + 1))
    done;
    let active = ref (hi - lo) in
    while !active > 0 do
      if t.hlen = 0 then
        (* No constraining event left: link-less flows get 0. *)
        for k = lo to hi - 1 do
          if freeze t t.order.(k) 0.0 then decr active
        done
      else begin
        let key = t.hkeys.(0) in
        let v = heap_pop t in
        if v >= 0 then begin
          let l = v in
          let cur = sat_level t l in
          if cur = infinity then ()
          else if cur > key +. (1e-12 *. (1.0 +. abs_float key)) then heap_push t cur l
          else begin
            settle t l cur;
            (* Descending row order: the freeze order (and so the float
               rounding of the per-link weight sums) that every pinned
               output was captured with. *)
            for p = t.link_start.(l + 1) - 1 downto t.link_start.(l) do
              let r = t.link_rows.(p) in
              if t.round_of.(r) = round && freeze t r cur then decr active
            done
          end
        end
        else if freeze t (-v - 1) key then decr active
      end
    done

  let compute t =
    let nl = Array.length t.capacities in
    let nf = t.nrows in
    for l = 0 to nl - 1 do
      t.remaining.(l) <- t.capacities.(l) *. (1.0 -. t.headroom)
    done;
    if nf > 0 then begin
      Array.fill t.rates 0 nf 0.0;
      Array.fill t.frozen 0 nf false;
      sort_rounds t;
      build_transpose t;
      let k0 = ref 0 in
      let round = ref 0 in
      let reserved = ref false in
      while !k0 < nf do
        let p = t.fprio.(t.order.(!k0)) in
        (* Crossing the reserve threshold: withhold the reserved slice from
           this and every lower class, exactly once. Gated on a non-zero
           fraction so the default path stays bit-identical. *)
        if (not !reserved) && t.reserve_frac > 0.0 && p >= t.reserve_prio then begin
          for l = 0 to nl - 1 do
            t.remaining.(l) <-
              Float.max 0.0 (t.remaining.(l) -. (t.reserve_frac *. t.capacities.(l)))
          done;
          reserved := true
        end;
        let k1 = ref (!k0 + 1) in
        while !k1 < nf && t.fprio.(t.order.(!k1)) = p do
          incr k1
        done;
        round_inc t ~round:!round !k0 !k1;
        incr round;
        k0 := !k1
      done
    end

  let allocate t =
    if t.dirty || not t.computed then begin
      compute t;
      t.dirty <- false;
      t.computed <- true
    end

  let rate t ~id = U.byte_rate t.rates.(row t id)

  let iter_rates t f =
    for r = 0 to t.nrows - 1 do
      f ~id:t.fid.(r) ~rate:(U.byte_rate t.rates.(r))
    done
end

(* One fresh run of the kernel. Flow [i] becomes row [i] — [flow.id] is
   opaque and may repeat — so rates are read back by position. *)
let allocate ?headroom ~capacities flows =
  let links = Array.fold_left (fun n f -> n + Array.length f.links) 0 flows in
  let inc = Inc.sized ~rows:(Array.length flows) ~links ?headroom ~capacities () in
  Array.iteri
    (fun i f ->
      Inc.add_flow ~weight:f.weight ~priority:f.priority ?demand:f.demand inc ~id:i f.links)
    flows;
  Inc.allocate inc;
  U.of_floats (Array.sub inc.Inc.rates 0 (Array.length flows))
