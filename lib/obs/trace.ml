type kind =
  | Protocol
  | Phase
  | Operation

let kind_name = function
  | Protocol -> "protocol"
  | Phase -> "phase"
  | Operation -> "operation"

type span = {
  id : int;
  parent : int option;
  name : string;
  kind : kind;
  start_ns : int64;
  mutable stop_ns : int64;
  mutable rev_attrs : (string * Json.t) list;
}

type event = {
  ev_name : string;
  ev_span : int option;
  ev_ns : int64;
  ev_attrs : (string * Json.t) list;
}

(* The collector is internally locked: span-id allocation, span/event
   appends, and stack edits all happen under [mu], so pool workers can
   share one collector (a process-global sink) without interleaving ids
   or losing appends.  Open-span stacks are per (domain, thread) — a
   systhread id is only unique within its domain — so each thread nests
   its own spans and never sees a sibling's stack. *)
type t = {
  epoch_ns : int64;
  mu : Mutex.t;
  mutable rev_spans : span list;
  mutable rev_events : event list;
  stacks : (int * int, span list) Hashtbl.t; (* innermost first *)
  mutable next_id : int;
}

let create () =
  {
    epoch_ns = Clock.now_ns ();
    mu = Mutex.create ();
    rev_spans = [];
    rev_events = [];
    stacks = Hashtbl.create 8;
    next_id = 0;
  }

let epoch_ns t = t.epoch_ns

let thread_key () = ((Domain.self () :> int), Thread.id (Thread.self ()))

let stack_of t key = Option.value ~default:[] (Hashtbl.find_opt t.stacks key)

(* ------------------------------------------------------------------ *)
(* Sink selection: a thread-local binding shadows the global sink.

   [with_collector] registers the collector for the calling thread only
   (in a per-domain, mutex-guarded registry, like the per-thread crypto
   counters), so a server can give every concurrent session its own
   trace while unrelated threads still see the process-global sink.
   The disabled fast path stays two loads: an atomic binding count and
   the sink ref. *)

type binding_reg = { breg_mu : Mutex.t; breg : (int, t) Hashtbl.t }

let bindings_key : binding_reg Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { breg_mu = Mutex.create (); breg = Hashtbl.create 8 })

let bound_count = Atomic.make 0

let sink : t option ref = ref None

let install t = sink := Some t
let uninstall () = sink := None

let current () =
  if Atomic.get bound_count = 0 then !sink
  else begin
    let reg = Domain.DLS.get bindings_key in
    let id = Thread.id (Thread.self ()) in
    match Mutex.protect reg.breg_mu (fun () -> Hashtbl.find_opt reg.breg id) with
    | Some t -> Some t
    | None -> !sink
  end

let enabled () = Option.is_some (current ())

let with_collector t f =
  let reg = Domain.DLS.get bindings_key in
  let id = Thread.id (Thread.self ()) in
  let previous = Mutex.protect reg.breg_mu (fun () -> Hashtbl.find_opt reg.breg id) in
  Mutex.protect reg.breg_mu (fun () -> Hashtbl.replace reg.breg id t);
  Atomic.incr bound_count;
  Fun.protect
    ~finally:(fun () ->
      Mutex.protect reg.breg_mu (fun () ->
          match previous with
          | Some p -> Hashtbl.replace reg.breg id p
          | None -> Hashtbl.remove reg.breg id);
      Atomic.decr bound_count)
    f

let collect f =
  let previous = !sink in
  let t = create () in
  sink := Some t;
  let restore () = sink := previous in
  match with_collector t f with
  | result ->
    restore ();
    (result, t)
  | exception e ->
    restore ();
    raise e

let rel t = Int64.sub (Clock.now_ns ()) t.epoch_ns

let with_span ?(kind = Operation) ?(attrs = []) name f =
  match current () with
  | None -> f ()
  | Some t ->
    let key = thread_key () in
    let s =
      Mutex.protect t.mu (fun () ->
          let stack = stack_of t key in
          let parent = match stack with [] -> None | s :: _ -> Some s.id in
          let now = rel t in
          let s =
            { id = t.next_id; parent; name; kind; start_ns = now; stop_ns = now;
              rev_attrs = List.rev attrs }
          in
          t.next_id <- t.next_id + 1;
          t.rev_spans <- s :: t.rev_spans;
          Hashtbl.replace t.stacks key (s :: stack);
          s)
    in
    let close () =
      Mutex.protect t.mu (fun () ->
          s.stop_ns <- rel t;
          (* Pop through any spans an escaping exception left open. *)
          let rec pop = function
            | [] -> []
            | x :: rest -> if x == s then rest else pop rest
          in
          Hashtbl.replace t.stacks key (pop (stack_of t key)))
    in
    (match f () with
     | result ->
       close ();
       result
     | exception e ->
       close ();
       raise e)

let add_attr name value =
  match current () with
  | None -> ()
  | Some t ->
    Mutex.protect t.mu (fun () ->
        match stack_of t (thread_key ()) with
        | [] -> ()
        | s :: _ -> s.rev_attrs <- (name, value) :: s.rev_attrs)

let event ?(attrs = []) name =
  match current () with
  | None -> ()
  | Some t ->
    Mutex.protect t.mu (fun () ->
        let ev_span =
          match stack_of t (thread_key ()) with [] -> None | s :: _ -> Some s.id
        in
        t.rev_events <-
          { ev_name = name; ev_span; ev_ns = rel t; ev_attrs = attrs } :: t.rev_events)

let current_span_id () =
  match current () with
  | None -> None
  | Some t ->
    Mutex.protect t.mu (fun () ->
        match stack_of t (thread_key ()) with [] -> None | s :: _ -> Some s.id)

let spans t = Mutex.protect t.mu (fun () -> List.rev t.rev_spans)
let events t = Mutex.protect t.mu (fun () -> List.rev t.rev_events)

let duration_ns s =
  let d = Int64.sub s.stop_ns s.start_ns in
  if Int64.compare d 0L < 0 then 0L else d

let attrs s = List.rev s.rev_attrs
let find_attr s name = List.assoc_opt name (attrs s)

let roots t = List.filter (fun s -> s.parent = None) (spans t)

let children t s = List.filter (fun c -> c.parent = Some s.id) (spans t)

let coverage t s =
  let total = Int64.to_float (duration_ns s) in
  if total <= 0.0 then 1.0
  else
    let covered =
      List.fold_left
        (fun acc c -> acc +. Int64.to_float (duration_ns c))
        0.0 (children t s)
    in
    Float.min 1.0 (covered /. total)
