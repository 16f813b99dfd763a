open Secmed_mediation
open Secmed_core

(* A cluster member: a datasource daemon keyed (source id, replica), or
   the mediator. *)
type member = Source of int * int | Mediator

(* Everything a cluster's members are started from, built by the owner
   and sent to the launcher once.  [d_proxies] maps a source id to the
   port of the chaos proxy on its primary's link. *)
type description = {
  d_env : Env.t;
  d_client : Env.client;
  d_scenario : string;
  d_replicas : int;
  d_policy : Resilience.policy option;
  d_max_sessions : int;
  d_io_timeout : float;
  d_health_interval : float option;
  d_drain_deadline : float option;
  d_proxies : (int * int) list;
}

(* What the owner asks its launcher, for the cluster of the given id.
   [Open] binds every member's port and starts the members, answering
   each member's (pid, port); [Stop (m, signal)] sends [signal] (if
   any), reaps the process and answers its exit code; [Start m] re-binds
   [m]'s port, starts a fresh incarnation (stopping a live one first)
   and answers its pid; [Close] kills and reaps every member and drops
   the cluster. *)
type request =
  | Open of int * description
  | Stop of int * member * int option
  | Start of int * member
  | Close of int

type cluster = {
  c_id : int;
  c_desc : description;
  c_query : string;
  c_port : int;
  c_proxies : (int * Chaos.t) list;
  c_pids : (member, int) Hashtbl.t;  (* the current incarnation of each member, under [mu] *)
}

let env c = c.c_desc.d_env
let client_of c = c.c_desc.d_client
let canonical_query c = c.c_query
let scenario c = c.c_desc.d_scenario
let port c = c.c_port

(* One request in flight to the launcher, and the pid tables. *)
let mu = Mutex.create ()

let pid_of c m = Mutex.protect mu (fun () -> Hashtbl.find_opt c.c_pids m)
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

(* ------------------------------------------------------------------ *)
(* The launcher: the owning program's own executable, started once per
   owner process, that creates no thread and so may fork.  It reads
   requests on its stdin and answers on its stdout; it is the parent of
   every member.  Until it forks a member, it holds that member's
   listener; each member closes every other listener, so a SIGKILLed
   member really takes its port down.  End of file on stdin means the
   owner is gone (finished, or died): every member is killed and
   reaped. *)

type live = {
  l_desc : description;
  l_ports : (member * int) list;
  l_pids : (member, int) Hashtbl.t;  (* the current incarnation of each member *)
}

let run_member l m fd =
  let d = l.l_desc in
  match m with
  | Source (sid, _) ->
    Peer.source ~id:sid ~env:d.d_env ~client:d.d_client ~scenario:d.d_scenario ~listen_fd:fd
      ~io_timeout:d.d_io_timeout ?drain_deadline:d.d_drain_deadline ()
  | Mediator ->
    (* A chaos proxy interposes on the primary (replica 0) only: the
       plan narrates one link's faults, and failover tests want the
       standby clean. *)
    let addr sid r =
      match List.assoc_opt sid d.d_proxies with
      | Some pport when r = 0 -> ("127.0.0.1", pport)
      | _ -> ("127.0.0.1", List.assoc (Source (sid, r)) l.l_ports)
    in
    let sources = List.map (fun sid -> (sid, List.init d.d_replicas (addr sid))) [ 1; 2 ] in
    Server.serve
      (Server.create ~env:d.d_env ~client:d.d_client ~scenario:d.d_scenario ~sources
         ~listen_fd:fd ?policy:d.d_policy ~max_sessions:d.d_max_sessions
         ~io_timeout:d.d_io_timeout ?drain_deadline:d.d_drain_deadline
         ?health_interval:d.d_health_interval ())

(* The member's stdout is the launcher's stderr, so the owner's reply
   pipe has one writer and reads end of file when the launcher dies. *)
let fork_member l m fd ~others =
  match Unix.fork () with
  | 0 ->
    List.iter close_fd others;
    Unix.dup2 Unix.stderr Unix.stdout;
    (try
       run_member l m fd;
       Unix._exit 0
     with _ -> Unix._exit 1)
  | pid ->
    close_fd fd;
    Hashtbl.replace l.l_pids m pid;
    pid

let stop l m signal =
  match Hashtbl.find_opt l.l_pids m with
  | None -> -1
  | Some pid ->
    Hashtbl.remove l.l_pids m;
    Option.iter (fun s -> try Unix.kill pid s with Unix.Unix_error _ -> ()) signal;
    exit_code pid

let stop_all l = List.iter (fun (m, _) -> ignore (stop l m (Some Sys.sigkill) : int)) l.l_ports

(* SO_REUSEADDR makes the re-bind immediate; retry briefly anyway rather
   than fail a run on a racy kernel. *)
let rec rebind port tries =
  try fst (Io.listen ~port ())
  with Io.Transport_error _ when tries > 0 ->
    Unix.sleepf 0.05;
    rebind port (tries - 1)

(* A request that fails ends the launcher, and with it every cluster:
   the owner reads end of file. *)
let launch () =
  let clusters = Hashtbl.create 4 in
  let reply v =
    Marshal.to_channel stdout v [];
    flush stdout
  in
  let handle = function
    | Open (id, d) ->
      (* Every port is bound before any member starts: a bound listener
         queues connections until its member calls accept, so there is
         no start-up race to sleep around. *)
      let listeners =
        List.concat_map (fun sid -> List.init d.d_replicas (fun r -> Source (sid, r))) [ 1; 2 ]
        @ [ Mediator ]
        |> List.map (fun m -> (m, Io.listen ~port:0 ()))
      in
      let l =
        { l_desc = d; l_ports = List.map (fun (m, (_, port)) -> (m, port)) listeners;
          l_pids = Hashtbl.create 8 }
      in
      Hashtbl.replace clusters id l;
      let rec start = function
        | [] -> []
        | (m, (fd, port)) :: rest ->
          let pid = fork_member l m fd ~others:(List.map (fun (_, (fd, _)) -> fd) rest) in
          (m, (pid, port)) :: start rest
      in
      reply (start listeners)
    | Stop (id, m, signal) -> reply (stop (Hashtbl.find clusters id) m signal)
    | Start (id, m) ->
      let l = Hashtbl.find clusters id in
      ignore (stop l m (Some Sys.sigkill) : int);
      reply (fork_member l m (rebind (List.assoc m l.l_ports) 100) ~others:[])
    | Close id ->
      Option.iter stop_all (Hashtbl.find_opt clusters id);
      Hashtbl.remove clusters id;
      reply ()
  in
  Fun.protect ~finally:(fun () -> Hashtbl.iter (fun _ l -> stop_all l) clusters) @@ fun () ->
  let rec loop () =
    match (Marshal.from_channel stdin : request) with
    | exception (End_of_file | Failure _) -> ()
    | request ->
      handle request;
      loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* The owner's side *)

(* The argument that starts an executable as a launcher (see the end of
   this file). *)
let launcher_arg = "secmed-loopback-launcher"

(* Started at the first cluster, with pipes opened close-on-exec, so it
   inherits only its stdin and stdout; at exit the owner closes its
   stdin and reaps it. *)
let launcher =
  lazy
    (let req_r, req_w = Unix.pipe ~cloexec:true () and rep_r, rep_w = Unix.pipe ~cloexec:true () in
     let pid =
       Unix.create_process Sys.executable_name
         [| Sys.executable_name; launcher_arg |]
         req_r rep_w Unix.stderr
     in
     close_fd req_r;
     close_fd rep_w;
     let oc = Unix.out_channel_of_descr req_w in
     at_exit (fun () ->
         close_out_noerr oc;
         ignore (exit_code pid : int));
     (Unix.in_channel_of_descr rep_r, oc))

let ask request =
  Mutex.protect mu @@ fun () ->
  let ic, oc = Lazy.force launcher in
  Marshal.to_channel oc (request : request) [];
  flush oc;
  Marshal.from_channel ic

let restarted c m pid = Mutex.protect mu (fun () -> Hashtbl.replace c.c_pids m pid)

let kill_source c ~id ~replica =
  ignore (ask (Stop (c.c_id, Source (id, replica), Some Sys.sigkill)) : int)

let restart_source c ~id ~replica =
  let m = Source (id, replica) in
  restarted c m (ask (Start (c.c_id, m)))

let drain_mediator c : int = ask (Stop (c.c_id, Mediator, Some Sys.sigterm))
let wait_mediator c : int = ask (Stop (c.c_id, Mediator, None))
let restart_mediator c = restarted c Mediator (ask (Start (c.c_id, Mediator)))

let next_id = Atomic.make 0

let with_cluster ?params ?policy ?(chaos = []) ?(max_sessions = 8) ?(io_timeout = 10.)
    ?(standbys = 0) ?health_interval ?drain_deadline ~spec f =
  let d_env, d_client, c_query = Workload.scenario ?params spec in
  let c_id = Atomic.fetch_and_add next_id 1 in
  let proxy_fds = List.map (fun (sid, plan) -> (sid, plan, Io.listen ~port:0 ())) chaos in
  let c_desc =
    { d_env; d_client; d_scenario = Scenario.digest ?params spec; d_replicas = 1 + max 0 standbys;
      d_policy = policy; d_max_sessions = max_sessions; d_io_timeout = io_timeout;
      d_health_interval = health_interval; d_drain_deadline = drain_deadline;
      d_proxies = List.map (fun (sid, _, (_, pport)) -> (sid, pport)) proxy_fds }
  in
  let started : (member * (int * int)) list =
    try ask (Open (c_id, c_desc))
    with e ->
      List.iter (fun (_, _, (fd, _)) -> close_fd fd) proxy_fds;
      raise e
  in
  let port_of m = snd (List.assoc m started) in
  let c_proxies =
    List.map
      (fun (sid, plan, listen) ->
        ( sid,
          Chaos.start ~plan ~target_host:"127.0.0.1" ~target_port:(port_of (Source (sid, 0)))
            ~listen () ))
      proxy_fds
  in
  let cluster =
    { c_id; c_desc; c_query; c_port = port_of Mediator; c_proxies;
      c_pids = Hashtbl.of_seq (List.to_seq (List.map (fun (m, (pid, _)) -> (m, pid)) started)) }
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (_, p) -> Chaos.stop p) c_proxies;
      ask (Close c_id))
    (fun () -> f cluster)

let target c =
  { Loadgen.host = "127.0.0.1"; port = c.c_port; scenario = scenario c; env = env c;
    client = client_of c; query = c.c_query }

let query c ?fault_spec ?deadline ?fallback ?io_timeout ?trace ~scheme () =
  Peer.run ~host:"127.0.0.1" ~port:c.c_port ~scenario:(scenario c) ~scheme ~query:c.c_query
    ?fault_spec ?deadline ?fallback
    ~io_timeout:(Option.value io_timeout ~default:c.c_desc.d_io_timeout)
    ?trace (env c) (client_of c)

(* An executable run with [launcher_arg] alone is a launcher: it serves
   its owner's requests and exits, before any later module starts. *)
let () =
  if Array.length Sys.argv = 2 && String.equal Sys.argv.(1) launcher_arg then begin
    launch ();
    exit 0
  end
