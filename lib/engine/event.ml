let noop () = ()

type t = {
  mutable time : float;
  mutable seq : int;
  mutable run : unit -> unit;
  mutable live : bool;
  mutable gen : int;
  mutable tick : int;
  mutable where : int;
  mutable pos : int;
}

let in_none = -2

let in_ready = -1

let make_dummy () =
  {
    time = 0.0;
    seq = -1;
    run = noop;
    live = false;
    gen = 0;
    tick = 0;
    where = in_none;
    pos = 0;
  }
