type t = {
  counters : (string, int ref) Hashtbl.t;
  marks : (string, int ref) Hashtbl.t;
}

let create () = { counters = Hashtbl.create 16; marks = Hashtbl.create 8 }

let slot table name =
  match Hashtbl.find_opt table name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add table name r;
      r

let charge t ?(ops = 1) name =
  let r = slot t.counters name in
  r := !r + ops

let watermark t name size =
  let r = slot t.marks name in
  if size > !r then r := size

let ops t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let total_ops t = Hashtbl.fold (fun _ r acc -> acc + !r) t.counters 0

let high_water t name =
  match Hashtbl.find_opt t.marks name with Some r -> !r | None -> 0

let sorted_entries table =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters t = sorted_entries t.counters
