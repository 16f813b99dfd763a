open Secmed_mediation
open Secmed_core

(* A cluster member: a datasource daemon keyed (source id, replica), or
   the mediator. *)
type member = Source of int * int | Mediator

(* What the owner asks its supervisor.  [Stop (m, signal)] sends
   [signal] (if any), reaps the process and answers its exit code;
   [Start m] re-binds [m]'s port, forks a fresh incarnation (stopping a
   live one first) and answers its pid. *)
type command = Stop of member * int option | Start of member

type cluster = {
  c_env : Env.t;
  c_client : Env.client;
  c_query : string;
  c_scenario : string;
  c_port : int;
  c_io_timeout : float;
  c_proxies : (int * Chaos.t) list;
  c_mu : Mutex.t;  (* one request in flight on the control socket *)
  c_ctl : in_channel * out_channel;
  c_pids : (member, int) Hashtbl.t;  (* the current incarnation of each member *)
}

let env c = c.c_env
let client_of c = c.c_client
let canonical_query c = c.c_query
let scenario c = c.c_scenario
let port c = c.c_port

let pid_of c m = Mutex.protect c.c_mu (fun () -> Hashtbl.find_opt c.c_pids m)
let mediator_pid c = Option.get (pid_of c Mediator)

let source_pid c ~id ~replica () =
  match pid_of c (Source (id, replica)) with
  | Some pid -> pid
  | None -> invalid_arg (Printf.sprintf "Loopback.source_pid: no source %d replica %d" id replica)

let chaos_events c sid =
  match List.assoc_opt sid c.c_proxies with
  | Some proxy -> Fault.events (Chaos.plan proxy)
  | None -> []

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

let exit_code pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED code -> code
  | _ -> -1
  | exception Unix.Unix_error _ -> -1

(* The supervisor: a single-threaded process forked at [with_cluster]
   entry and the parent of every daemon.  A threaded owner (a soak's
   fleet, the chaos proxies) may then fork nothing itself: forking from
   a threaded process clones locked mutexes into the child.  Until it
   forks a member, the supervisor holds that member's pre-bound
   listener; each daemon closes every listener but its own, so a
   SIGKILLed daemon really takes its port down.  End of file on the
   control socket means the owner is gone (finished, or died): every
   daemon is killed and reaped. *)
let supervise ~ctl ~listeners ~run =
  let ic = Unix.in_channel_of_descr ctl and oc = Unix.out_channel_of_descr ctl in
  let reply v =
    Marshal.to_channel oc v [];
    flush oc
  in
  let unforked = Hashtbl.of_seq (List.to_seq (List.map (fun (m, (fd, _)) -> (m, fd)) listeners)) in
  let pids = Hashtbl.create 8 in
  let spawn m fd =
    match Unix.fork () with
    | 0 ->
      Hashtbl.iter (fun m' fd' -> if m' <> m then close_fd fd') unforked;
      close_fd ctl;
      (* A daemon starts from a zeroed metrics registry, so a fresh
         cluster's totals are its own.  It must never escape into the
         owner's control flow (test runners, at_exit hooks). *)
      Secmed_obs.Metrics.reset ();
      (try
         run m fd;
         Unix._exit 0
       with _ -> Unix._exit 1)
    | pid ->
      Hashtbl.remove unforked m;
      close_fd fd;
      Hashtbl.replace pids m pid;
      pid
  in
  let stop m signal =
    match Hashtbl.find_opt pids m with
    | None -> -1
    | Some pid ->
      Hashtbl.remove pids m;
      Option.iter (fun s -> try Unix.kill pid s with Unix.Unix_error _ -> ()) signal;
      exit_code pid
  in
  (* SO_REUSEADDR makes the re-bind immediate; retry briefly anyway
     rather than fail a run on a racy kernel. *)
  let rec rebind port tries =
    try fst (Io.listen ~port ())
    with Io.Transport_error _ when tries > 0 ->
      Unix.sleepf 0.05;
      rebind port (tries - 1)
  in
  Fun.protect
    ~finally:(fun () ->
      Hashtbl.iter (fun m _ -> ignore (stop m (Some Sys.sigkill) : int)) (Hashtbl.copy pids))
  @@ fun () ->
  reply (List.map (fun (m, (fd, _)) -> (m, spawn m fd)) listeners);
  let rec loop () =
    match (Marshal.from_channel ic : command) with
    | exception _ -> ()
    | Stop (m, signal) ->
      reply (stop m signal);
      loop ()
    | Start m ->
      ignore (stop m (Some Sys.sigkill) : int);
      reply (spawn m (rebind (snd (List.assoc m listeners)) 100));
      loop ()
  in
  loop ()

let ask c cmd =
  let ic, oc = c.c_ctl in
  Mutex.protect c.c_mu (fun () ->
      Marshal.to_channel oc (cmd : command) [];
      flush oc;
      let v : int = Marshal.from_channel ic in
      (match cmd with Start m -> Hashtbl.replace c.c_pids m v | Stop _ -> ());
      v)

let kill_source c ~id ~replica =
  ignore (ask c (Stop (Source (id, replica), Some Sys.sigkill)) : int)

let restart_source c ~id ~replica = ignore (ask c (Start (Source (id, replica))) : int)
let drain_mediator c = ask c (Stop (Mediator, Some Sys.sigterm))
let wait_mediator c = ask c (Stop (Mediator, None))
let restart_mediator c = ignore (ask c (Start Mediator) : int)

let with_cluster ?params ?policy ?(chaos = []) ?(max_sessions = 8) ?(io_timeout = 10.)
    ?(standbys = 0) ?health_interval ?drain_deadline ~spec f =
  let c_env, c_client, c_query = Workload.scenario ?params spec in
  let c_scenario = Scenario.digest ?params spec in
  let replicas = 1 + max 0 standbys in
  (* Reserve every port before any process starts: a pre-bound listener
     queues connections until its owner calls accept, so there is no
     startup race to sleep around.  With [standbys], each source gets
     that many extra daemon processes — every replica a deterministic
     twin built from the same seed. *)
  let listeners =
    List.concat_map
      (fun sid -> List.init replicas (fun r -> (Source (sid, r), Io.listen ~port:0 ())))
      [ 1; 2 ]
    @ [ (Mediator, Io.listen ~port:0 ()) ]
  in
  let port_of m = snd (List.assoc m listeners) in
  let proxy_fds = List.map (fun (sid, plan) -> (sid, plan, Io.listen ~port:0 ())) chaos in
  (* A chaos proxy interposes on the primary (replica 0) only: the plan
     narrates one link's faults, and failover tests want the standby
     clean. *)
  let addr_for sid r =
    match List.find_opt (fun (psid, _, _) -> psid = sid && r = 0) proxy_fds with
    | Some (_, _, (_, pport)) -> ("127.0.0.1", pport)
    | None -> ("127.0.0.1", port_of (Source (sid, r)))
  in
  let run m fd =
    match m with
    | Source (sid, _) ->
      Peer.source ~id:sid ~env:c_env ~client:c_client ~scenario:c_scenario ~listen_fd:fd
        ~io_timeout ?drain_deadline ()
    | Mediator ->
      let sources = List.map (fun sid -> (sid, List.init replicas (addr_for sid))) [ 1; 2 ] in
      Server.serve
        (Server.create ~env:c_env ~client:c_client ~scenario:c_scenario ~sources
           ~listen_fd:fd ?policy ~max_sessions ~io_timeout ?drain_deadline
           ?health_interval ())
  in
  let ctl_owner, ctl_sup = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let sup_pid =
    match Unix.fork () with
    | 0 ->
      close_fd ctl_owner;
      List.iter (fun (_, _, (fd, _)) -> close_fd fd) proxy_fds;
      (try
         supervise ~ctl:ctl_sup ~listeners ~run;
         Unix._exit 0
       with _ -> Unix._exit 1)
    | pid -> pid
  in
  close_fd ctl_sup;
  List.iter (fun (_, (fd, _)) -> close_fd fd) listeners;
  let ic = Unix.in_channel_of_descr ctl_owner and oc = Unix.out_channel_of_descr ctl_owner in
  let stop_supervisor () =
    close_out_noerr oc;
    ignore (exit_code sup_pid : int)
  in
  let pids =
    try (Marshal.from_channel ic : (member * int) list)
    with e ->
      stop_supervisor ();
      raise e
  in
  (* The proxies live as threads in this process; they start only after
     the fork, so no thread state is cloned into a child. *)
  let c_proxies =
    List.map
      (fun (sid, plan, (pfd, pport)) ->
        ( sid,
          Chaos.start ~plan ~target_host:"127.0.0.1" ~target_port:(port_of (Source (sid, 0)))
            ~listen:(pfd, pport) () ))
      proxy_fds
  in
  let cluster =
    { c_env; c_client; c_query; c_scenario; c_port = port_of Mediator;
      c_io_timeout = io_timeout; c_proxies; c_mu = Mutex.create (); c_ctl = (ic, oc);
      c_pids = Hashtbl.of_seq (List.to_seq pids) }
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (_, p) -> Chaos.stop p) c_proxies;
      stop_supervisor ())
    (fun () -> f cluster)

let target c =
  {
    Loadgen.host = "127.0.0.1";
    port = c.c_port;
    scenario = c.c_scenario;
    env = c.c_env;
    client = c.c_client;
    query = c.c_query;
  }

let query c ?fault_spec ?deadline ?fallback ?io_timeout ?trace ~scheme () =
  Peer.run ~host:"127.0.0.1" ~port:c.c_port ~scenario:c.c_scenario ~scheme ~query:c.c_query
    ?fault_spec ?deadline ?fallback
    ~io_timeout:(Option.value io_timeout ~default:c.c_io_timeout)
    ?trace c.c_env c.c_client
