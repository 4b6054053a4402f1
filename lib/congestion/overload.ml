(* Overload control: strict-priority admission with hysteresis, plus an
   AIMD backpressure pacer (paper §3.3.2 priorities, defended under
   offered load beyond rack capacity).

   Three small state machines share this module because both the
   simulator (lib/sim) and the application stack (lib/core) need them and
   lib/sim cannot see lib/core:

   - [Admission] turns a per-epoch overload verdict (queue occupancy above
     the high watermark somewhere) into a shed floor: the lowest priority
     class is refused first, escalating one class per overloaded epoch up
     to [max_priority], and de-escalating one class only after
     [clean_epochs_to_recover] consecutive clean epochs — hysteresis so
     recovery does not flap admission on a queue oscillating around the
     watermark.

   - [Pacer] holds one sender's multiplicative-decrease /
     additive-increase rate scale: each PAUSE level received multiplies
     the scale by [backoff]^level (clamped at [min_scale]); every clean
     epoch adds [recovery] back until the scale reaches 1.

   - [Headroom] is graceful degradation under control-packet loss: an
     EWMA of the observed loss fraction widens the waterfill headroom, so
     stale views overbook less while repairs are in flight. *)

module Admission = struct
  type t = {
    max_priority : int;  (** lowest (numerically highest) class that exists *)
    clean_epochs_to_recover : int;
    mutable shed_floor : int;
        (** classes with priority >= shed_floor are refused;
            [max_priority + 1] = admit everything *)
    mutable clean_run : int;  (** consecutive clean epochs seen *)
  }

  let create ?(clean_epochs_to_recover = 3) ~max_priority () =
    if max_priority < 0 then invalid_arg "Overload.Admission: negative max_priority";
    if clean_epochs_to_recover < 1 then
      invalid_arg "Overload.Admission: clean_epochs_to_recover < 1";
    { max_priority; clean_epochs_to_recover; shed_floor = max_priority + 1; clean_run = 0 }

  let shed_floor t = t.shed_floor
  let shedding t = t.shed_floor <= t.max_priority

  let admits t ~priority = priority < t.shed_floor

  (* One verdict per rate epoch. Escalation is immediate (shed one more
     class, never class 0 — the highest class is only throttled by the
     pacer, not refused); de-escalation waits out the hysteresis window. *)
  let note_epoch t ~overloaded =
    if overloaded then begin
      t.clean_run <- 0;
      if t.shed_floor > 1 then t.shed_floor <- t.shed_floor - 1
    end
    else begin
      t.clean_run <- t.clean_run + 1;
      if t.clean_run >= t.clean_epochs_to_recover && shedding t then begin
        t.shed_floor <- t.shed_floor + 1;
        t.clean_run <- 0
      end
    end

  let reset t =
    t.shed_floor <- t.max_priority + 1;
    t.clean_run <- 0
end

module Pacer = struct
  type t = {
    backoff : float;  (** multiplicative decrease per PAUSE level, in (0, 1) *)
    recovery : float;  (** additive increase per clean epoch, > 0 *)
    min_scale : float;  (** floor so a paused sender keeps probing, in (0, 1] *)
    mutable scale : float;  (** current pacing multiplier, [min_scale, 1] *)
  }

  let create ?(backoff = 0.5) ?(recovery = 0.1) ?(min_scale = 0.05) () =
    if not (backoff > 0.0 && backoff < 1.0) then
      invalid_arg "Overload.Pacer: backoff outside (0, 1)";
    if not (recovery > 0.0) then invalid_arg "Overload.Pacer: non-positive recovery";
    if not (min_scale > 0.0 && min_scale <= 1.0) then
      invalid_arg "Overload.Pacer: min_scale outside (0, 1]";
    { backoff; recovery; min_scale; scale = 1.0 }

  let scale t = t.scale

  (* PAUSE level n: back off n halvings at once (exponential in the level,
     so a deeply congested receiver cuts a sender down in one packet). *)
  let note_pause t ~level =
    if level < 0 then invalid_arg "Overload.Pacer: negative pause level";
    let s = ref t.scale in
    for _ = 1 to level do
      s := !s *. t.backoff
    done;
    t.scale <- Float.max t.min_scale !s

  let note_clean_epoch t = t.scale <- Float.min 1.0 (t.scale +. t.recovery)
  let reset t = t.scale <- 1.0
end

module Headroom = struct
  let gain = 2.0
  let cap = Util.Units.fraction 0.30

  (* All-float record: stored flat, so updating it allocates nothing. *)
  type t = { base : float; mutable ewma : float; mutable effective : float }

  let create ~base =
    let base = (base : Util.Units.fraction :> float) in
    { base; ewma = 0.0; effective = base }

  let note_loss t ~sent ~lost =
    if sent > 0 then
      t.ewma <- (0.8 *. t.ewma) +. (0.2 *. (float_of_int lost /. float_of_int sent));
    t.effective <- Float.min (cap : Util.Units.fraction :> float) (t.base +. (gain *. t.ewma))

  let loss_ewma t = Util.Units.fraction t.ewma
  let effective t = Util.Units.fraction t.effective
end
