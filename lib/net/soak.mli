(** Crash/restart chaos soak: a seeded schedule of real process deaths
    driven against a live loopback cluster under load.

    {!run} runs on {!Loopback.with_cluster} (one standby per source by
    default): its launcher starts every datasource replica daemon and
    the mediator, each on a pre-bound port.  The driver then offers a
    deterministic {!Loadgen} fleet (with a connect-retry budget, so
    sessions ride out restarts) while executing {!schedule} through
    {!Loopback}: SIGKILL a source replica, restart it on the same port,
    drain-restart the mediator via SIGTERM.  Before each SIGTERM it
    polls the mediator's [Health] until a session is in flight (or the
    fleet is done), so a drain is tried under load.

    Afterwards the report asserts the robustness invariants — no
    session [Failed], none lost or duplicated, every served result
    bit-identical under [verify], every mediator drain exited 0 and saw
    a session in flight, and the mediator's failover transition log
    shows a down and an up edge for every endpoint the schedule killed —
    and distills availability metrics (first-try share, kill-window p99,
    worst failover latency).  A report with an empty [sk_violations] is
    a pass. *)

open Secmed_core

type action = Kill of int * int  (** (source id, replica index) *) | Drain_restart

type config = {
  params : Env.params option;
  spec : Workload.spec;
  workers : int;
  sessions_per_worker : int;
  standbys : int;  (** extra replica daemons per source *)
  kills : int;  (** SIGKILL/restart cycles, cycling over every endpoint *)
  drains : int;  (** mediator drain-restart cycles *)
  seed : string;  (** seeds both the schedule shuffle and the fleet *)
  rate : float;  (** aggregate Poisson arrival rate; [<= 0.] = closed loop *)
  gap : float;  (** settle seconds before each schedule action *)
  kill_hold : float;  (** how long a killed process stays dead *)
  retry_connect : int;  (** per-session connect-retry budget (see {!Loadgen}) *)
  io_timeout : float;
  verify : bool;
}

val default_config : config
(** 4 workers x 8 sessions, 1 standby per source, 4 kills + 1 drain,
    10/s Poisson, verification on. *)

val schedule : config -> action list
(** The pure seeded schedule [run] executes: same config, same list. *)

type event = { ev_at : float; ev_label : string }
(** One schedule action as executed, timestamped relative to fleet
    start. *)

type transition = {
  tr_incarnation : int;  (** which mediator incarnation logged it *)
  tr_at : float;  (** seconds since that incarnation started *)
  tr_source : int;
  tr_replica : int;
  tr_kind : string;  (** "down" | "up" | "failover" *)
  tr_detail : string;
}
(** One mediator failover-log entry, recovered from the stats snapshot
    stashed before each drain and at the end (the log dies with its
    incarnation). *)

type report = {
  sk_load : Loadgen.report;
  sk_events : event list;
  sk_transitions : transition list;
  sk_drain_exits : int list;
  sk_drain_in_flight : int list;
      (** sessions the mediator's [Health] counted in flight just before
          each drain's SIGTERM *)
  sk_kills : (int * int) list;  (** endpoints killed, in schedule order *)
  sk_violations : string list;  (** empty = every invariant held *)
  sk_availability_pct : float;  (** share of sessions served on the first try *)
  sk_kill_window_p99_ms : float;
      (** p99 start-to-verdict latency of sessions overlapping a kill window *)
  sk_failover_latency_s : float;
      (** worst over kills: first session completion after the kill *)
}

val ok : report -> bool

val run : ?progress:(string -> unit) -> config -> report
(** Execute the soak.  [progress] (default silent) receives one line
    per schedule action as it happens.  The cluster is killed and
    reaped however this returns. *)

val render : report -> string

val write_log : path:string -> report -> unit
(** The machine-readable soak artifact: one JSON object per line —
    executed schedule events, the recovered transition log, drain exit
    codes, violations, and the summary. *)
