type t = {
  sim : Engine.Sim.t;
  bucket : Token_bucket.t;
  mutable green : int;
  mutable red : int;
}

let create ~sim ~committed_rate_bps ~burst =
  {
    sim;
    bucket =
      Token_bucket.create ~rate_bps:committed_rate_bps ~burst
        ~now:(Engine.Sim.now sim);
    green = 0;
    red = 0;
  }

let mark t frame =
  let now = Engine.Sim.now t.sim in
  if Token_bucket.conform t.bucket ~now ~bytes:frame.Frame.size then begin
    frame.Frame.mark <- Mark.Green;
    t.green <- t.green + 1
  end
  else begin
    frame.Frame.mark <- Mark.Red;
    t.red <- t.red + 1
  end

let green_count t = t.green

let red_count t = t.red
