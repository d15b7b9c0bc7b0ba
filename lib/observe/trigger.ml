(* Hysteresis around a boolean signal. The drift gauge is noisy — a
   fleet profile hovering at the threshold flips the comparison every
   few sessions — and a rebuild costs a repack+fuse pass, so the retune
   loop must not fire on every edge. Classic two-sided debounce: demand
   [up] consecutive over-threshold observations to fire, then hold a
   [cooldown] of observations before re-arming, during which nothing
   accumulates. Pure counters, no clocks: observations are whatever unit
   the caller deems meaningful (the serve daemon observes once per
   completed session). *)

type t = {
  up : int;
  cooldown : int;
  mutable streak : int; (* consecutive over-threshold observations *)
  mutable cool : int; (* observations left before re-arming *)
  mutable fired : int;
}

let default_up = 2
let default_cooldown = 8

let create ?(up = default_up) ?(cooldown = default_cooldown) () =
  if up < 1 then invalid_arg "Trigger.create: up must be >= 1";
  if cooldown < 0 then invalid_arg "Trigger.create: cooldown must be >= 0";
  { up; cooldown; streak = 0; cool = 0; fired = 0 }

let observe t over =
  if t.cool > 0 then begin
    t.cool <- t.cool - 1;
    t.streak <- 0;
    false
  end
  else if not over then begin
    t.streak <- 0;
    false
  end
  else begin
    t.streak <- t.streak + 1;
    if t.streak >= t.up then begin
      t.streak <- 0;
      t.cool <- t.cooldown;
      t.fired <- t.fired + 1;
      true
    end
    else false
  end

let armed t = t.cool = 0
let fired t = t.fired
let up t = t.up
let cooldown t = t.cooldown
