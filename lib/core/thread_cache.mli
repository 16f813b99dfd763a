(** A cache of parked systhreads, reused across short tasks.

    The served deployment runs every session on a thread of its own (the
    mediator's connection thread, a source's session thread), and the
    {!Batch} executor runs its helpers on threads too.  Creating and
    joining a systhread per session or per call costs more than waking
    one that is parked, so a thread that finishes a task parks on a
    condition variable and takes the next one; a thread is created only
    when none is parked.  There is no size limit, idle timeout or knob:
    the peak thread count is the peak concurrency, which the callers'
    admission already bounds.

    {b Per-thread state} — [Counters] tables and [Trace] bindings are
    keyed by [Thread.id], which a reused thread keeps.  After each task
    the cache releases the task's [Counters] table, so the next task
    starts from zero; a [Trace.with_collector] binding is scoped and
    gone by then.

    {b Failure} — a task's uncaught exception is reported through
    [Thread.default_uncaught_exception_handler], and the thread parks
    again.

    {b Fork} — the cache remembers the process that made it: a forked
    child starts with an empty cache of its own and never touches the
    parent's mutex, and a thread that returns from a task in a child
    forked inside that task exits instead of parking.

    {b Domains} — only the main domain parks threads.  On any other
    domain each task gets a thread that exits when the task ends, since
    [Domain.join] waits for every thread of the domain. *)

val spawn : (unit -> unit) -> unit
(** [spawn task] runs [task ()] on a parked thread, or on a new one if
    none is parked, and returns at once. *)

val parked : unit -> int
(** The number of threads parked in this process's cache now. *)
