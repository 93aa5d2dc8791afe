type 'a t = {
  compare : 'a -> 'a -> int;
  mutable data : 'a array;
  mutable size : int;
}

let create ~compare = { compare; data = [||]; size = 0 }

let length t = t.size

let is_empty t = t.size = 0

(* The backing array doubles on demand; slot 0 is the root. *)
let ensure_capacity t =
  let cap = Array.length t.data in
  if t.size >= cap then begin
    let dummy = t.data.(0) in
    let data = Array.make (Stdlib.max 8 (2 * cap)) dummy in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end

let swap t i j =
  let x = t.data.(i) in
  t.data.(i) <- t.data.(j);
  t.data.(j) <- x

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.compare t.data.(i) t.data.(parent) < 0 then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < t.size && t.compare t.data.(left) t.data.(!smallest) < 0 then
    smallest := left;
  if right < t.size && t.compare t.data.(right) t.data.(!smallest) < 0 then
    smallest := right;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let add t x =
  if t.size = 0 && Array.length t.data = 0 then t.data <- Array.make 8 x;
  ensure_capacity t;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let min t = if t.size = 0 then None else Some t.data.(0)

let pop_min t =
  if t.size = 0 then None
  else begin
    let root = t.data.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      sift_down t 0
    end;
    Some root
  end

let clear t = t.size <- 0
