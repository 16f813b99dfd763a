# Convenience entry points; everything below is plain dune.

.PHONY: all check test check-fault check-obs check-obs-net check-resilience check-net check-serve check-soak check-stream check-crypto-perf bench loc clean

all:
	dune build

check:
	dune build && dune runtest

test: check

# Fault-injection / differential conformance suite on its own (all its
# randomized tests run under a fixed seed baked into the test file).
# The first grep fails if a driver records a transcript entry instead of
# delivering through Link; the second if anything in lib/core outside the
# run frame (Outcome.Builder.run) sets up a run itself, so no driver can
# skip the frame; the third if a message every process computes, or a
# step every process runs, comes back: every message is a projected
# exchange, every step a party's own; the fourth if an in-process fork
# of delivery or a second fault applier comes back: a run in one process
# crosses the in-memory transport, and a channel fault is carried out
# only on real bytes, by Fault.damage (perfbench, whose workloads keep a
# deployment constructor named Inproc, is not searched).
check-fault:
	! grep -rn "Transcript.record" lib/core
	! grep -rnE "Link\.make|Fault\.attach|Counters\.with_fresh|Outcome\.Builder\.create" lib/core --exclude=outcome.ml --exclude=outcome.mli
	! grep -rnE "Link\.deliver\b|Builder\.replicated" lib bin test bench
	! grep -rnwE "Inproc|Fault\.apply|with_delay_handler|delay_handler_installed|simulated_delay|Resilience\.charge" lib bin test bench examples
	dune exec test/test_fault.exe

# Telemetry suite: the obs unit/differential tests, a traced run whose
# output must parse (small domain so it stays CI-fast), the cost report
# at a small row count, and a bad workload flag that must be a usage
# error (exit 124), not a crash.
check-obs:
	dune exec test/test_obs.exe
	dune exec bin/secmed.exe -- run --scheme pm --rows 16 --distinct 8 --overlap 4 \
	    --trace _build/trace_ci.json
	dune exec bin/secmed.exe -- report --all --rows 8
	dune exec bin/secmed.exe -- run --rows 8 > /dev/null 2>&1; test $$? -eq 124

# Distributed-tracing suite: the Trace_wire codec, the forked loopback
# cluster traced end to end (one merged Chrome trace, per-process phase
# structure differentially equal to the in-process run, source spans
# rooted under the mediator's session span), and the live stats surface
# of a loaded mediator.
check-obs-net:
	dune exec test/test_trace_net.exe -- test -e

# Resilience suite: deterministic session-layer tests (manual clocks,
# seeded jitter — never sleeps) and CLI runs that must degrade
# gracefully (exit 4 = degraded-but-served) or fail typed (exit 3 =
# FAULT): a byzantine pm source, and a pm-direct Tup_i over the
# Paillier plaintext capacity, which is the evaluating source's typed
# failure and degrades to commutative under --fallback auto.
check-resilience:
	dune exec test/test_resilience.exe
	dune exec bin/secmed.exe -- run --scheme pm --rows 16 --distinct 8 --overlap 4 \
	    --fault "byzantine:1:garbage-paillier" --fallback auto --deadline 30; \
	    test $$? -eq 4
	dune exec bin/secmed.exe -- run --scheme pm-direct --rows 16 --distinct 8 --overlap 4; \
	    test $$? -eq 3
	dune exec bin/secmed.exe -- run --scheme pm-direct --rows 16 --distinct 8 --overlap 4 \
	    --fallback auto; test $$? -eq 4

# Networked-transport suite: frame codec and mux units (receivers wake
# on arrival: a parked reader wakes at once when its reader thread
# dies, and a timeout fires on time), the projected request phase (only
# source i checks its credentials and evaluates its partial query; the
# mediator, serving from a view with no relation, reads no source data),
# the forked loopback cluster differential (distributed run bit-identical
# to the in-process one), typed refusals of bad queries and credentials,
# and live chaos-proxy conformance.
check-net:
	dune exec test/test_net.exe -- test -e

# Sustained-load serving suite.  The first grep fails if a thread is
# created per call or per session again: Batch's helpers and a source's
# session threads come from the thread cache (Thread_cache.spawn), which
# parks and reuses them.  The second fails if the load generator dials
# per session again (Peer.run): each worker keeps one Peer client, one
# connection and Hello for all its sessions.  The third fails if a
# process forks anywhere but in the loopback launcher, which creates no
# thread: a process with threads never forks.  The fourth fails if the
# thread cache, the batch executor or the mux keeps a process id again:
# nothing there has to survive a fork.  Then the deterministic loadgen
# fleet against a loopback cluster (64 verified sessions, typed
# backpressure, replica failover and drain, the owner's descriptors
# kept from the cluster, owner death, domain-parallel mux consumers, a
# domain that ran a batch and a spawned task joins, a cluster after a
# domain), then the real binaries: bad address and id flags must exit
# 124 (usage error), then two `secmed source` daemons and a `secmed
# serve`, a verified `secmed loadgen` fleet, and a `secmed drain` of
# each daemon, which must then exit 0.
check-serve:
	! grep -n "Thread.create" lib/core/batch.ml lib/net/peer.ml
	! grep -n "Peer\.run" lib/net/loadgen.ml
	! grep -rn --exclude=loopback.ml "Unix\.fork" lib bin test
	! grep -n "getpid" lib/core/thread_cache.ml lib/core/batch.ml lib/net/endpoint.ml
	dune exec test/test_serve.exe -- test -e
	sh tools/cli_cluster.sh

# Crash/restart chaos suite: the pure-schedule and smoke-soak tests,
# then a seeded CLI soak — real SIGKILLs against source replicas and a
# SIGTERM drain-restart of the mediator under a verifying fleet — that
# must hold every robustness invariant (exit 0; a drain must see a
# session in flight, so the fleet outlasts the schedule) and leaves its
# machine-readable transition log as a CI artifact.
check-soak:
	dune exec test/test_soak.exe -- test -e
	dune exec bin/secmed.exe -- soak --fast --workers 2 --sessions 20 --kills 2 \
	    --drains 1 --rate 6 --log SOAK_transitions.jsonl

# Streaming-delivery suite.  The grep fails if a second chunk form or
# a chunk codec outside Frame comes back: Frame alone encodes a chunk's
# header and rows, one form, with no per-row index.  Then the chunk
# codec / reassembly / credit-flow units (receivers wake on arrival, a
# receive window bounded by one chunk, a drained backlog, the credit
# rule — a grant only for a chunk beyond the sender's first window, so
# a long stream blocks on exactly its grants and a one-chunk stream
# sends no Credit — the size pin of a one-row chunk and a Credit, and
# the reused receive buffer allocating less than a fresh one per read),
# and every typed rejection of the chunk reader (a row out of position,
# chunk gap, disagreeing declared sizes, short stream, rows past the
# end, surplus or missing bytes; a replayed chunk is merged once).
check-stream:
	! grep -rnwE "ck_one_row|encode_entries|decode_entries|payload_row_bytes|entry_overhead|s_row" lib bin test
	dune exec test/test_stream.exe -- test -e

# Crypto hot-path suite.  The first grep fails if the bigint or batch
# interface exports a global mutable knob (a `ref`): one context type
# alone picks the Montgomery kernel or the plain residue ring, and the
# batch executor's width is a rule of the code.  The second fails if
# an OCaml SHA-256 compression loop comes back: the rounds run only in
# the C kernel (sha256_stubs.c).  The third and fourth fail if the OCaml
# joint-window table of Multi_exp or the single-base exponentiation
# entry point comes back: an exponentiation of one or more bases is one
# call of the kernel's multi-base entry point.  The fifth fails if a
# dedicated Montgomery squaring comes back: the kernel has one
# product-scanning Montgomery routine, and squares go through it.  The
# sixth fails if a fixed-window digit reader comes back beside the one
# sliding-window scan, and the seventh if a Horner evaluation comes back
# on PM's runtime path: a source evaluates each value as one
# multi-exponentiation over the coefficients' tables.  The eighth fails
# if a Jacobi symbol comes back: ElGamal decapsulation is one
# exponentiation c1^x for every unit c1, with no residuosity branch.  The
# ninth and tenth fail if the batch executor spawns domains (its helpers
# are parked threads, which overlap inside the kernel's lock-free calls)
# or a domain-count knob comes back.  The eleventh and twelfth fail if
# ElGamal element encryption or decryption, the fused fixed-base
# multiply-exponentiate that served it, or a second DEM comes back: the
# KEM is hashed ElGamal, one group element per ciphertext, and the one
# DEM seals each single-use key's message.  The thirteenth fails if a
# hybrid ciphertext carries a nonce again: its DEM's key is used once,
# so the nonce is a constant.  Then the
# bigint/crypto differential tests (both context kinds' multiply,
# exponentiation, Multi_exp over tables of every width, Fixed_base and
# domain conversions vs mod_pow_plain at 64-bit word edges and on even
# moduli, a chained
# multiply against the aliasing exponentiation, binary vs Euclidean
# gcd, the linear byte
# codec vs its shift-and-add reference, CRT vs plain decryption, the
# SHA-256 kernel on FIPS 180-4 vectors and mid-block updates, AES-CTR
# vs the vector-checked block cipher, domain-local cache stress, two
# threads in the lock-free kernel under a tiny minor heap), the batch
# executor suite (a sequential map over the same streams, merged
# counters, the lowest-index exception, every scheme identical run
# after run), the DAS client's
# decrypt-each-ciphertext-once test, and PM's masked evaluation against
# its plaintext oracle.
check-crypto-perf:
	! grep -nE ':[^:]* ref$$' lib/bigint/bigint.mli lib/core/batch.mli
	! grep -nE "process_block|rotr" lib/crypto/sha256.ml
	! grep -n "make_matrix" lib/bigint/bigint.ml
	! grep -rnw "secmed_bigint_mont_pow" lib/bigint
	! grep -nw "mont_sqr" lib/bigint/bigint_stubs.c
	! grep -n "exp_digit" lib/bigint/bigint_stubs.c
	! grep -rnw "eval_encrypted" lib
	! grep -rnw "jacobi" lib
	! grep -n "Domain.spawn" lib/core/batch.ml
	! grep -rn "SECMED_DOMAINS\|set_default_domains" lib bin bench test
	! grep -nwE "encrypt|decrypt" lib/crypto/elgamal.ml lib/crypto/elgamal.mli
	! grep -rnwE "Elgamal\.(encrypt|decrypt)|mul_pow_fb|dem_encrypt|dem_decrypt" lib
	! grep -nE "^ *nonce *:|[{;] *nonce\b" lib/crypto/hybrid.ml
	dune exec test/test_bigint.exe
	dune exec test/test_crypto.exe
	dune exec test/test_batch.exe
	dune exec test/test_core_protocols.exe -- test das-decrypt-once
	dune exec test/test_core_protocols.exe -- test pm-poly

# Non-comment, non-blank lines of the transport and the CLI, per file
# and in total (the line budget ROADMAP.md tracks), then the total of
# the crypto, protocol-driver and observability libraries, then the
# total of the bigint library.
loc:
	dune exec tools/loc.exe -- lib/net/*.ml lib/net/*.mli bin/*.ml
	dune exec tools/loc.exe -- lib/crypto/*.ml lib/crypto/*.mli lib/core/*.ml \
	    lib/core/*.mli lib/obs/*.ml lib/obs/*.mli | tail -n 1
	dune exec tools/loc.exe -- lib/bigint/*.ml lib/bigint/*.mli | tail -n 1

# Full benchmark/reproduction suite (slow).
bench:
	dune exec bench/main.exe -- all

clean:
	dune clean
