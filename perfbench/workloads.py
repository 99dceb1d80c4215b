"""One run of one benchmark workload, in a fresh interpreter started by run.py.

    PYTHONPATH=src python3 perfbench/workloads.py --workload NAME --seed N \
        --seconds S --trace 0|1 [--setup-only]

The set-up time covers importing the package and generating the inputs.
With --trace 0 the ops run untraced and their latencies are reported.
With --trace 1 the ops of a short untraced phase are repeated with every
layer boundary traced, which gives the per-layer metrics and the tracing
overhead.  Every output is checked by oracles.py after the timed phase.
The last line of stdout is one JSON object.
"""

import time

_IMPORT_START = time.perf_counter()
from cyclefactor import cli, enumeration, exact, families, graphs, search, verify  # noqa: E402

_IMPORT_S = time.perf_counter() - _IMPORT_START

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import oracles  # noqa: E402
from speed import REFERENCE_KERNEL_S, SpeedSampler  # noqa: E402
from tracer import Tracer, patched  # noqa: E402

HERE = Path(__file__).resolve().parent

# search-8-4 runs a fixed number of iterations per requested second, so the
# search, and hence its leaderboard, is a pure function of seed and length.
SEARCH_ITERATIONS_PER_SECOND = 10
# certify-random cycles through this many seeded graphs; each is checked by
# the oracle once, and every repeat must reproduce the checked document.
CERTIFY_GRAPHS = 8
# In a traced run the untraced phase gets this share of --seconds; the
# traced phase then repeats exactly the same ops.
TRACE_BASELINE_SHARE = 0.25


def run_ops(op, sampler: SpeedSampler, seconds: float | None = None, count: int | None = None):
    """Run op(0), op(1), ... back to back, for `seconds` or for `count` ops.

    Returns (latencies, kernel means, outputs) as SpeedSampler.timed gives
    them; an op that raises yields its exception as the output.
    """
    latencies, kernels, outputs = [], [], []
    start = time.perf_counter()
    i = 0
    while (i < count) if count is not None else (time.perf_counter() - start < seconds):
        out, latency, kernel = sampler.timed(op, i)
        latencies.append(latency)
        kernels.append(kernel)
        outputs.append(out)
        i += 1
    return latencies, kernels, outputs


class GadgetCross:
    """Brute force against the closed forms for the crossing gadget, d = 3..6."""

    # calls inside an op where the speed kernel may run (see speed.py)
    speed_hooks = ((verify, "cycle_factor_stats"), (verify, "classify_crossing_patterns"))

    def __init__(self, seed: int, workdir: Path):
        pass  # deterministic by construction

    def op(self, i: int):
        return verify.gadget_cross_validation(d_max=oracles.GADGET_D_MAX)

    def check(self, outputs) -> tuple[int, list[str]]:
        failed, problems = _check_each(outputs, oracles.check_gadget_report)
        degrees = range(3, oracles.GADGET_D_MAX + 1)
        forms = {d: exact.gadget_closed_form(d) for d in degrees}
        gadgets = {d: families.crossing_gadget(d)[0] for d in degrees}
        shared = oracles.check_gadget_forms(forms, gadgets)
        if shared:
            return len(outputs), problems + shared
        return failed, problems


class TwoRegular:
    """Every 2-regular digraph on at most 6 vertices, with per-arc usage."""

    speed_hooks = ((verify, "cycle_factor_stats"),)

    def __init__(self, seed: int, workdir: Path):
        pass  # deterministic by construction

    def op(self, i: int):
        return verify.two_regular_suite(n_max=oracles.TWO_REGULAR_N_MAX)

    def check(self, outputs) -> tuple[int, list[str]]:
        return _check_each(outputs, oracles.check_two_regular_report)


class CertifyRandom:
    """`cyclefactor verify` in process on seeded random 4-regular digraphs, n=16."""

    N, D = 16, 4
    speed_hooks = ()  # an op is short enough for the samples around it

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        rng = random.Random(seed)
        self.paths, self.texts = [], []
        for k in range(CERTIFY_GRAPHS):
            text = graphs.to_text(search.random_regular_digraph(self.N, self.D, rng), self.D)
            path = workdir / f"g{k}.txt"
            path.write_text(text, encoding="utf-8")
            self.paths.append(str(path))
            self.texts.append(text)

    def op(self, i: int):
        k = i % CERTIFY_GRAPHS
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["verify", "--graph", self.paths[k], "--d", str(self.D)])
        return k, code, buf.getvalue()

    def check(self, outputs) -> tuple[int, list[str]]:
        accepted: dict[int, str] = {}  # graph index -> output text the oracle passed
        return _check_each(outputs, lambda out: self._problems(out, accepted))

    def _problems(self, out, accepted: dict[int, str]) -> list[str]:
        k, code, text = out
        if code != 0:
            return [f"exit code {code}"]
        if k in accepted:
            return [] if text == accepted[k] else ["differs from the checked output for this graph"]
        try:
            doc = json.loads(text)
        except ValueError:
            return [f"output is not JSON: {text[:80]!r}"]
        found = oracles.check_certify_doc(doc, self.texts[k], self.D, relabel_seed=self.seed * 1000 + k)
        if doc.get("graph") != self.texts[k]:
            found.append("certificate graph differs from the input file")
        if not found:
            accepted[k] = text
        return found


def _check_each(outputs, check) -> tuple[int, list[str]]:
    failed, problems = 0, []
    for i, out in enumerate(outputs):
        found = [f"raised {out!r}"] if isinstance(out, Exception) else check(out)
        if found:
            failed += 1
            problems += [f"op {i}: {p}" for p in found]
    return failed, problems


class IterationClock:
    """Marks the bounds of each search iteration from the outside.

    Every lineage with a graph makes exactly one swap_move call per
    iteration; a lineage whose fresh graph failed to generate has none and
    makes no call in the next iteration, so failures are subtracted.  The
    speed kernel runs at every iteration bound, outside the iterations.
    """

    def __init__(self, population: int, sampler: SpeedSampler, swap_move, random_regular_digraph):
        self.population = population
        self.sampler = sampler
        self.starts: list[float] = []
        self.ends: list[float] = []  # ends[k] closes iteration k - 1
        self.marks: list[int] = []  # index of the kernel sample before iteration k
        self._left = 0
        self._failed_since = 0
        self._swap_move = swap_move
        self._generate = random_regular_digraph

    def close(self) -> tuple[list[float], list[float]]:
        """After the run: per-iteration latencies and mean kernel times."""
        self.ends.append(time.perf_counter())
        self.sampler.sample()
        samples = self.sampler.samples
        bounds = self.marks + [len(samples) - 1]
        latencies = [b - a for a, b in zip(self.starts, self.ends[1:])]
        kernels = [statistics.mean(samples[a : b + 1]) for a, b in zip(bounds, bounds[1:])]
        return latencies, kernels

    def swap_move(self, *args, **kwargs):
        if self._left == 0:
            self.ends.append(time.perf_counter())
            self.sampler.sample()
            self.marks.append(len(self.sampler.samples) - 1)
            self.starts.append(time.perf_counter())
            self._left = self.population - self._failed_since
            self._failed_since = 0
        self._left -= 1
        return self._swap_move(*args, **kwargs)

    def random_regular_digraph(self, *args, **kwargs):
        try:
            return self._generate(*args, **kwargs)
        except search.GenerationError:
            self._failed_since += 1
            raise


class Search84:
    """Seeded beam search for 4-regular digraphs on 8 vertices, population 64."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def config(self, iterations: int) -> search.SearchConfig:
        return search.SearchConfig(n=8, d=4, population=64, seed=self.seed, iterations=iterations)

    def measure(self, seconds: float, sampler: SpeedSampler) -> dict:
        config = self.config(max(1, round(SEARCH_ITERATIONS_PER_SECOND * seconds)))
        clock = IterationClock(
            config.population, sampler, search.swap_move, search.random_regular_digraph
        )
        with patched(search, "swap_move", clock.swap_move), patched(
            search, "random_regular_digraph", clock.random_regular_digraph
        ):
            records = search.run_search(config)
        latencies, kernels = clock.close()
        failed, problems = self.check(records, config)
        if len(latencies) != config.iterations:
            problems.append(f"timed {len(latencies)} iterations, ran {config.iterations}")
            failed = config.iterations
        return {"latencies": latencies, "op_kernel_s": kernels, "attempted": config.iterations,
                "failed": failed, "problems": problems}

    def check(self, records, config) -> tuple[int, list[str]]:
        if isinstance(records, Exception):
            return config.iterations, [f"run_search raised {records!r}"]
        bad = oracles.check_search_records(records, config.n, config.d, config.population)
        problems = [
            f"iteration {rec.iteration if rec else '-'}: {problem}" for rec, problem in bad
        ]
        if any(rec is None for rec, _ in bad):
            return config.iterations, problems
        return len({max(1, rec.iteration) for rec, _ in bad}), problems


WORKLOADS = {
    "gadget-cross": GadgetCross,
    "search-8-4": Search84,
    "two-regular": TwoRegular,
    "certify-random": CertifyRandom,
}


def install_trace_points(tracer: Tracer, stack: contextlib.ExitStack, observed: dict) -> None:
    """Patch every layer boundary the workloads cross, at the caller's binding."""

    def count_factors(counts, args, stats):
        counts["enumeration.cycle_factor_stats.factors"] += stats.count

    def record_search_certify(counts, args, cert):
        observed["certified"].append(args[0])

    def record_fingerprint(counts, args, fp):
        observed["fingerprints"][args[0]] = fp

    points = [
        (verify, "gadget_cross_validation", "verify.gadget_cross_validation", None),
        (verify, "two_regular_suite", "verify.two_regular_suite", None),
        (verify, "cycle_factor_stats", "enumeration.cycle_factor_stats", count_factors),
        (verify, "classify_crossing_patterns", "enumeration.classify_crossing_patterns", None),
        (verify, "gadget_closed_form", "exact.gadget_closed_form", None),
        (verify, "crossing_gadget", "families.crossing_gadget", None),
        (enumeration, "crossing_gadget", "families.crossing_gadget", None),
        (verify, "to_text", "graphs.to_text", None),
        (search, "run_search", "search.run_search", None),
        (search, "random_regular_digraph", "search.random_regular_digraph", None),
        (search, "swap_move", "search.swap_move", None),
        (search, "certify", "verify.certify", record_search_certify),
        (search, "fingerprint", "graphs.fingerprint", record_fingerprint),
        (cli, "main", "cli.main", None),
        (cli, "from_text", "graphs.from_text", None),
        (cli, "certify", "verify.certify", None),
    ]
    for module, attr, name, observe in points:
        wrapper = tracer.traced(name, getattr(module, attr), observe)
        stack.enter_context(patched(module, attr, wrapper))
    gen = tracer.traced_generator(
        "verify.iter_two_regular_digraphs", verify.iter_two_regular_digraphs
    )
    stack.enter_context(patched(verify, "iter_two_regular_digraphs", gen))


def layer_metrics(tracer: Tracer, observed: dict, overhead: float) -> dict[str, tuple]:
    """Per-layer metrics as name -> (value, unit); see BENCHMARK.json."""
    summary = tracer.summary()
    counts = tracer.counts

    def calls(name):
        return (summary.get(name, (0, 0.0, 0.0))[0], "count")

    def busy(name):
        return (summary.get(name, (0, 0.0, 0.0))[1], "s")

    def self_s(name):
        return (summary.get(name, (0, 0.0, 0.0))[2], "s")

    op_wall = busy("op")[0]
    cfs = "enumeration.cycle_factor_stats"
    ccp = "enumeration.classify_crossing_patterns"
    fp = "graphs.fingerprint"
    factors = counts[cfs + ".factors"]
    certified = observed["certified"]
    fps = observed["fingerprints"]
    classes = {fps[g] if g in fps else graphs.fingerprint(g) for g in certified}
    return {
        cfs + ".calls": calls(cfs),
        cfs + ".busy_s": busy(cfs),
        cfs + ".factors": (factors, "count"),
        cfs + ".factors_per_s": (factors / busy(cfs)[0] if factors else 0.0, "1/s"),
        ccp + ".calls": calls(ccp),
        ccp + ".busy_s": busy(ccp),
        "enumeration.share": ((busy(cfs)[0] + busy(ccp)[0]) / op_wall, "ratio"),
        fp + ".calls": calls(fp),
        fp + ".busy_s": busy(fp),
        fp + ".share": (busy(fp)[0] / op_wall, "ratio"),
        "search.certify_per_class": (len(certified) / len(classes) if classes else 0.0, "ratio"),
        "search.run_search.self_s": self_s("search.run_search"),
        "search.swap_move.busy_s": busy("search.swap_move"),
        "search.random_regular_digraph.busy_s": busy("search.random_regular_digraph"),
        "search.random_regular_digraph.failures": (
            counts["search.random_regular_digraph.failures"], "count"),
        "verify.certify.calls": calls("verify.certify"),
        "verify.certify.busy_s": busy("verify.certify"),
        "verify.certify.self_s": self_s("verify.certify"),
        "graphs.to_text.busy_s": busy("graphs.to_text"),
        "verify.iter_two_regular_digraphs.graphs": (
            counts["verify.iter_two_regular_digraphs.items"], "count"),
        "verify.iter_two_regular_digraphs.busy_s": busy("verify.iter_two_regular_digraphs"),
        "verify.two_regular_suite.self_s": self_s("verify.two_regular_suite"),
        "verify.gadget_cross_validation.self_s": self_s("verify.gadget_cross_validation"),
        "cli.main.self_s": self_s("cli.main"),
        "graphs.from_text.busy_s": busy("graphs.from_text"),
        "exact.gadget_closed_form.busy_s": busy("exact.gadget_closed_form"),
        "families.crossing_gadget.busy_s": busy("families.crossing_gadget"),
        "trace.op_wall_s": (op_wall, "s"),
        "trace.self_coverage": (sum(row[2] for row in summary.values()) / op_wall, "ratio"),
        "trace_overhead_ratio": (overhead, "ratio"),
    }


def measure(wl, seconds: float, sampler: SpeedSampler) -> dict:
    if isinstance(wl, Search84):
        return wl.measure(seconds, sampler)
    with contextlib.ExitStack() as stack:
        for module, attr in wl.speed_hooks:
            stack.enter_context(patched(module, attr, sampler.hooked(getattr(module, attr))))
        latencies, kernels, outputs = run_ops(wl.op, sampler, seconds=seconds)
    failed, problems = wl.check(outputs)
    return {"latencies": latencies, "op_kernel_s": kernels, "attempted": len(outputs),
            "failed": failed, "problems": problems}


def traced_run(wl, seconds: float, sampler: SpeedSampler, name: str, seed: int) -> dict:
    """Untraced ops, then the same ops traced, for the per-layer metrics.

    The overhead ratio compares unscaled times: with one long op per phase,
    as in search-8-4 and two-regular, the kernel samples at its two ends
    would add more noise than they remove.
    """
    tracer = Tracer()
    observed = {"certified": [], "fingerprints": {}}

    def spanned(fn):
        def op(*args):
            with tracer.span("op"):
                return fn(*args)

        return op

    budget = seconds * TRACE_BASELINE_SHARE
    if isinstance(wl, Search84):
        config = wl.config(max(1, round(SEARCH_ITERATIONS_PER_SECOND * budget)))
        records, untraced, _ = sampler.timed(search.run_search, config)
        with contextlib.ExitStack() as stack:
            install_trace_points(tracer, stack, observed)
            traced_records, traced, _ = sampler.timed(spanned(search.run_search), config)
        failed, problems = wl.check(traced_records, config)
        if traced_records != records:
            problems.append("traced search returned a different leaderboard")
            failed = config.iterations
        attempted = config.iterations
    else:
        latencies, _, outputs = run_ops(wl.op, sampler, seconds=budget)
        with contextlib.ExitStack() as stack:
            install_trace_points(tracer, stack, observed)
            traced_latencies, _, traced_outputs = run_ops(
                spanned(wl.op), sampler, count=len(outputs)
            )
        untraced, traced = sum(latencies), sum(traced_latencies)
        failed, problems = wl.check(outputs + traced_outputs)
        attempted = 2 * len(outputs)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{name}-seed{seed}.tsv")
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "per_layer": layer_metrics(tracer, observed, traced / untraced),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    sampler = SpeedSampler()
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        t0 = time.perf_counter()
        wl = WORKLOADS[args.workload](args.seed, Path(tmp))
        setup_s = _IMPORT_S + time.perf_counter() - t0
        sampler.sample()
        sampler.sample()
        result = {
            "setup_s": setup_s,
            "setup_kernel_s": statistics.mean(sampler.samples),
            "reference_kernel_s": REFERENCE_KERNEL_S,
        }
        if args.setup_only:
            pass
        elif args.trace:
            result.update(traced_run(wl, args.seconds, sampler, args.workload, args.seed))
        else:
            result.update(measure(wl, args.seconds, sampler))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
