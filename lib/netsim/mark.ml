type t = Green | Red | Best_effort

let equal a b =
  match (a, b) with
  | Green, Green | Red, Red | Best_effort, Best_effort -> true
  | (Green | Red | Best_effort), _ -> false
