(** Overload control shared by the simulator and the application stack:
    strict-priority admission/shedding with hysteresis, an AIMD
    backpressure pacer driven by PAUSE packets, and the loss-scaled
    waterfill headroom.

    All three are driven once per rate epoch and are allocation-free after
    construction. *)

(** Strict-priority load shedding. The shed floor starts above the lowest
    class (admit everything); every overloaded epoch lowers it by one class
    (lowest priority refused first, class 0 never refused), and only
    [clean_epochs_to_recover] consecutive clean epochs raise it back — the
    hysteresis that keeps a queue oscillating around the watermark from
    flapping admission. *)
module Admission : sig
  type t

  val create : ?clean_epochs_to_recover:int -> max_priority:int -> unit -> t
  (** [max_priority] is the numerically largest (least urgent) class in
      use; [clean_epochs_to_recover] defaults to 3. Raises
      [Invalid_argument] on a negative class count or a window < 1. *)

  val admits : t -> priority:int -> bool
  (** Would a flow of this class be admitted right now? *)

  val shed_floor : t -> int
  (** Classes with [priority >= shed_floor] are refused;
      [max_priority + 1] when nothing is shed. *)

  val shedding : t -> bool

  val note_epoch : t -> overloaded:bool -> unit
  (** Feed one rate epoch's overload verdict. *)

  val reset : t -> unit
end

(** One sender's AIMD rate scale: PAUSE level [n] multiplies the scale by
    [backoff]^n (floored at [min_scale]); each clean epoch adds [recovery]
    back until the scale returns to 1. *)
module Pacer : sig
  type t

  val create : ?backoff:float -> ?recovery:float -> ?min_scale:float -> unit -> t
  (** Defaults: backoff 0.5, recovery 0.1/epoch, min_scale 0.05. Raises
      [Invalid_argument] outside (0,1) / positive / (0,1] respectively. *)

  val scale : t -> float
  (** Current pacing multiplier in [[min_scale, 1]]. *)

  val note_pause : t -> level:int -> unit
  (** Apply a received PAUSE. Raises [Invalid_argument] on a negative
      level; level 0 is a no-op (the all-clear — recovery is additive,
      through {!note_clean_epoch}). *)

  val note_clean_epoch : t -> unit
  val reset : t -> unit
end

(** Graceful degradation under control-packet loss (§3.3): the waterfill
    reserves [min cap (base + 2 * loss EWMA)] instead of the static [base]
    headroom, so transiently stale views overbook less while the control
    plane is struggling. Each interval's loss fraction enters the EWMA
    with weight 0.2. *)
module Headroom : sig
  type t

  val cap : Util.Units.fraction
  (** 0.30: the loss-scaled reserve never exceeds this. *)

  val create : base:Util.Units.fraction -> t
  (** No loss seen yet; {!effective} starts at [base], uncapped until the
      first {!note_loss}. *)

  val note_loss : t -> sent:int -> lost:int -> unit
  (** Fold one interval in which [lost] of [sent] control packets were
      lost; [sent = 0] leaves the EWMA alone. Either way the effective
      headroom is recomputed. Allocates nothing. *)

  val loss_ewma : t -> Util.Units.fraction
  val effective : t -> Util.Units.fraction
end
