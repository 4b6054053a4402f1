(* In-memory span recorder for the traced run: name, start, end and
   parent, one trace per run, written out as Chrome trace-event JSON
   (chrome://tracing, Perfetto) when the run ends. *)

type span = { id : int; name : string; parent : int; start : float; stop : float }
type t = { origin : float; mutable spans : span list; mutable next : int }

let now = Unix.gettimeofday
let create () = { origin = now (); spans = []; next = 1 }

let fresh_id tr =
  let id = tr.next in
  tr.next <- id + 1;
  id

(* Records a span that ran from [start] to [stop]; returns its id. *)
let add tr ?(parent = 0) name ~start ~stop =
  let id = fresh_id tr in
  tr.spans <- { id; name; parent; start; stop } :: tr.spans;
  id

(* Times [f] as a span; [f] receives the span's id to parent its children.
   Returns [f]'s result and the span's duration in seconds. *)
let time tr ?(parent = 0) name f =
  let id = fresh_id tr in
  let start = now () in
  let x = f id in
  let stop = now () in
  tr.spans <- { id; name; parent; start; stop } :: tr.spans;
  (x, stop -. start)

let write tr path =
  let us t = (t -. tr.origin) *. 1e6 in
  let event s =
    Printf.sprintf
      "{\"name\": %S, \"cat\": \"perfbench\", \"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, \
       \"pid\": 1, \"tid\": 1, \"args\": {\"id\": %d, \"parent\": %d}}"
      s.name (us s.start)
      (us s.stop -. us s.start)
      s.id s.parent
  in
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  output_string oc (String.concat ",\n" (List.rev_map event tr.spans));
  output_string oc "\n]}\n";
  close_out oc
