open Secmed_mediation
open Secmed_core

type cluster = {
  c_env : Env.t;
  c_client : Env.client;
  c_query : string;
  c_scenario : string;
  c_port : int;
  c_io_timeout : float;
  c_proxies : (int * Chaos.t) list;
  c_source_pids : ((int * int * int) * int) list;  (* (source id, shard, replica) -> pid *)
  c_mediator_pid : int;
}

let env c = c.c_env
let client_of c = c.c_client
let canonical_query c = c.c_query
let scenario c = c.c_scenario
let port c = c.c_port
let mediator_pid c = c.c_mediator_pid

let source_pid c ?(shard = 0) ~id ~replica () =
  match List.assoc_opt (id, shard, replica) c.c_source_pids with
  | Some pid -> pid
  | None ->
    invalid_arg
      (Printf.sprintf "Loopback.source_pid: no source %d shard %d replica %d" id shard replica)

let chaos_events c sid =
  match List.assoc_opt sid c.c_proxies with
  | Some proxy -> Fault.events (Chaos.plan proxy)
  | None -> []

(* Children must never escape into the caller's control flow (test
   runners, at_exit hooks): whatever happens, they exit here.  A child
   starts from a zeroed metrics registry, so a fresh cluster's totals
   are its own, not a copy of the parent's. *)
let fork_proc f =
  match Unix.fork () with
  | 0 ->
    Secmed_obs.Metrics.reset ();
    (try f () with _ -> ());
    Unix._exit 0
  | pid -> pid

let with_cluster ?params ?policy ?(chaos = []) ?(max_sessions = 8) ?(io_timeout = 10.)
    ?source_conns ?workers ?(standbys = 0) ?(shards = 1) ?health_interval ?drain_deadline
    ~spec f =
  if shards < 1 then invalid_arg "Loopback.with_cluster: shards must be >= 1";
  let c_env, c_client, c_query = Workload.scenario ?params spec in
  let c_scenario = Scenario.digest ?params spec in
  let replicas = 1 + max 0 standbys in
  (* Reserve every port before any process starts: a pre-bound listener
     queues connections until its owner calls accept, so there is no
     startup race to sleep around.  With [standbys], each shard gets
     that many extra daemon processes — every replica a deterministic
     twin built from the same seed; with [shards] > 1, each source id
     splits into that many partitioned daemons (DESIGN.md §16). *)
  let source_fds =
    List.concat_map
      (fun sid ->
        List.concat_map
          (fun sh -> List.init replicas (fun r -> ((sid, sh, r), Io.listen ~port:0 ())))
          (List.init shards Fun.id))
      [ 1; 2 ]
  in
  let med_fd, med_port = Io.listen ~port:0 () in
  let proxy_fds = List.map (fun (sid, plan) -> (sid, plan, Io.listen ~port:0 ())) chaos in
  (* A chaos proxy interposes on the primary (shard 0, replica 0) only:
     the plan narrates one link's faults, and failover tests want the
     standby clean. *)
  let addr_for (sid, sh, r) port =
    match
      List.find_opt (fun (psid, _, _) -> psid = sid && sh = 0 && r = 0) proxy_fds
    with
    | Some (_, _, (_, pport)) -> ("127.0.0.1", pport)
    | None -> ("127.0.0.1", port)
  in
  let c_source_pids =
    List.map
      (fun ((sid, sh, r), (fd, _)) ->
        ( (sid, sh, r),
          fork_proc (fun () ->
              Peer.source ~id:sid ~env:c_env ~client:c_client
                ~scenario:(Shard.digest c_scenario ~shard:(sh, shards))
                ~listen_fd:fd ~shard:(sh, shards) ~io_timeout ?drain_deadline
                ~drain_on_sigterm:true ()) ))
      source_fds
  in
  let c_mediator_pid =
    fork_proc (fun () ->
        let sources =
          List.map
            (fun sid ->
              ( sid,
                List.init shards (fun sh ->
                    List.init replicas (fun r ->
                        let _, sport = List.assoc (sid, sh, r) source_fds in
                        addr_for (sid, sh, r) sport)) ))
            [ 1; 2 ]
        in
        let server =
          Server.create ~env:c_env ~client:c_client ~scenario:c_scenario ~sources
            ~listen_fd:med_fd ?policy ~max_sessions ~io_timeout ?source_conns ?workers
            ?drain_deadline ?health_interval ()
        in
        Sys.set_signal Sys.sigterm
          (Sys.Signal_handle (fun _ -> Server.begin_drain server));
        Server.serve server)
  in
  let pids = List.map snd c_source_pids @ [ c_mediator_pid ] in
  (* The children own the listeners now; the proxies, which live as
     threads in this process, start only after the forks so no thread
     state is cloned into a child. *)
  List.iter (fun (_, (fd, _)) -> try Unix.close fd with Unix.Unix_error _ -> ()) source_fds;
  (try Unix.close med_fd with Unix.Unix_error _ -> ());
  let c_proxies =
    List.map
      (fun (sid, plan, (pfd, pport)) ->
        let _, sport = List.assoc (sid, 0, 0) source_fds in
        ( sid,
          Chaos.start ~plan ~target_host:"127.0.0.1" ~target_port:sport
            ~listen:(pfd, pport) () ))
      proxy_fds
  in
  let cluster =
    { c_env; c_client; c_query; c_scenario; c_port = med_port; c_io_timeout = io_timeout;
      c_proxies; c_source_pids; c_mediator_pid }
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (_, p) -> Chaos.stop p) c_proxies;
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        pids)
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
