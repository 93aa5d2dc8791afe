open Cmdliner

let jobs ~doc =
  let count = Arg.conv' (Engine.Pool.jobs_of_string, Format.pp_print_int) in
  Arg.(
    value
    & opt (some count) None
    & info [ "jobs"; "j" ] ~docv:"N" ~env:(Cmd.Env.info "VTP_JOBS")
        ~doc:(doc ^ "  $(docv) is at least 1; above 128 counts as 128."))
