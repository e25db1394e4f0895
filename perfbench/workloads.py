"""The three workloads: seeded inputs, the timed item, and output checks.

Every workload runs rounds of items.  ``make`` builds one item's inputs
(untimed), ``run`` is the timed item and fills ``out`` step by step, and
``check`` (untimed, untraced) returns the problems found in what ``run``
returned.  Library calls go through module attributes (``sc.memory_cost``),
never through names bound at import, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import subprocess
import sys
import time

import numpy as np

import superchan as sc
from superchan import documents

from layers import ITEM, JSON_LOADS, PROCESS
from tracing import load_spans

HERE = os.path.dirname(os.path.abspath(__file__))
REALIZE_TOL = 1e-8  # realize's default reconstruction tolerance
STATE_ATOL = 1e-9
TYPE_II = ("A1", "A2")  # left side of the Type-II cut A1A2|B1B2
CLI_TIMEOUT_S = 60.0  # a d=4 command takes about 1 s


def _span(tracer, name, attrs=None):
    return tracer.span(name, attrs) if tracer else contextlib.nullcontext()


def _rng(*key):
    return np.random.default_rng([int(k) for k in key])


def _kraus_rank(d_in, d_out):
    """Rank 2 where the dims allow it: at most d_in * d_out operators, and
    at least ceil(d_in / d_out) for a trace-preserving channel."""
    return min(d_in * d_out, max(2, -(-d_in // d_out)))


def _input_channel(d_in, d_out, rng):
    return sc.random_channel(d_in, d_out, _kraus_rank(d_in, d_out), rng)


def _run_steps(out, steps):
    for key, call in steps:
        out["step"] = key
        out[key] = call(out)
    del out["step"]


def run_item(wl, inputs, tracer):
    """Run one item; returns (latency_s, outputs, error or None).

    The latency is measured here, outside the tracer, so a traced item's
    latency is also the wall time its spans' self times must add up to.
    """
    out = {}
    error = None
    start = time.perf_counter()
    if tracer is None:
        try:
            wl.run(inputs, out, None)
        except Exception as exc:
            error = exc
    else:
        with tracer.recording():
            try:
                with tracer.span(ITEM):
                    wl.run(inputs, out, tracer)
            except Exception as exc:
                error = exc
    return time.perf_counter() - start, out, error


def guarded(check, *args):
    """Problems a check reports; a check that raises is one problem."""
    try:
        return check(*args)
    except Exception as exc:
        return [f"{check.__name__} raised {type(exc).__name__}: {exc}"]


def attempt(wl, inputs, tracer):
    """Run and check one item; returns (latency_s, failure or None, error).

    An exception or a failed output check fails the item; ``error`` is
    (step, exception) when a step raised, else None.
    """
    latency, out, error = run_item(wl, inputs, tracer)
    if error is not None:
        step = out.get("step", "?")
        return latency, f"{inputs['label']}: {step} raised " \
                        f"{type(error).__name__}: {error}", (step, error)
    problems = guarded(wl.check, inputs, out)
    if problems:
        return latency, f"{inputs['label']}: {'; '.join(problems)}", None
    return latency, None, None


def _warm_up_item(wl, spec):
    """Run and check one untimed item; returns the problems found."""
    _, failure, _ = attempt(wl, wl.make(spec), None)
    return [f"warm-up {failure}"] if failure else []


def known_verdicts():
    """Problems with the verdicts the paper's examples must get, in process."""
    problems = []
    if sc.eb_channel_report(sc.depolarizing_channel(0.7)).is_eb is not True:
        problems.append("depolarizing_channel(0.7) is not reported EB")
    report = sc.superchannel_breaking_report(sc.example_type1_not_type2())
    if not report.type_I.is_ppt or report.type_II.is_ppt:
        problems.append("example_type1_not_type2 is not Type-I PPT and Type-II NPT")
    eb = sc.random_eb_superchannel(sc.SuperchannelDims(2, 2, 2, 2), 2, seed=53)
    if not sc.superchannel_breaking_report(eb).type_II.is_ppt:
        problems.append("random_eb_superchannel is not Type-II PPT")
    return problems


# ----------------------------------------------------------------------
# the superchannel chain shared by both library workloads
# ----------------------------------------------------------------------

def chain_steps(theta, channel):
    return (
        ("report", lambda o: sc.validate_superchannel(theta)),
        ("applied", lambda o: sc.apply_to_channel(theta, channel)),
        ("memory_cost", lambda o: sc.memory_cost(theta)),
        ("realization", lambda o: sc.realize(theta)),
        ("breaking", lambda o: sc.superchannel_breaking_report(theta)),
        ("gour", lambda o: sc.gour_from_choi(theta)),
        ("back", lambda o: sc.choi_from_gour(o["gour"])),
    )


def check_chain(theta, out):
    problems = []
    if not out["report"].valid:
        problems.append("validate_superchannel rejected a valid superchannel")
    if not sc.validate_channel(out["applied"]).valid:
        problems.append("apply_to_channel output fails validate_channel")
    realization = out["realization"]
    if realization.e1_dim != out["memory_cost"]:
        problems.append(f"memory_cost {out['memory_cost']} != realize "
                        f"memory dim {realization.e1_dim}")
    if not realization.reconstruction_residual <= REALIZE_TOL:
        problems.append(f"realize residual {realization.reconstruction_residual}")
    if not np.array_equal(out["back"].op.matrix, theta.op.matrix):
        problems.append("choi_from_gour(gour_from_choi(theta)) is not exact")
    return problems


def _superchannel_item(dims, memory_dim, rng):
    d = sc.SuperchannelDims(*dims)
    theta = sc.random_superchannel(d, memory_dim, seed=rng)
    channel = sc.choi_from_kraus(_input_channel(d.b1, d.a2, rng))
    return {"label": f"{dims} m={memory_dim}", "theta": theta,
            "channel": channel}


class LibraryLarge:
    def __init__(self, config):
        self.shapes = [tuple(s) for s in config["shapes"]]
        self.memory_dims = config["memory_dims"]

    def rounds(self, seed):
        """A round is one item of each shape, taken in turn, so the items of
        one shape are spread over the run.  The memory dim cycles by round and
        shape, so every two rounds pair each shape with each memory dim once
        and the work per round does not hang on the seed."""
        for r in itertools.count():
            yield [("item", seed, r, i, shape,
                    self.memory_dims[(r + i) % len(self.memory_dims)])
                   for i, shape in enumerate(self.shapes)]

    known_verdicts = staticmethod(known_verdicts)

    def warm_up(self, seed):
        return _warm_up_item(self, ("item", seed, -1, 0, (2, 2, 2, 2), 2))

    def make(self, spec):
        _, seed, r, i, shape, m = spec
        return _superchannel_item(shape, m, _rng(seed, r + 1, i))

    def run(self, inputs, out, tracer):
        _run_steps(out, chain_steps(inputs["theta"], inputs["channel"]))

    def check(self, inputs, out):
        return check_chain(inputs["theta"], out)


# ----------------------------------------------------------------------
# library_small
# ----------------------------------------------------------------------

NEAR_CUTOFF_EPS = tuple(
    m * 10.0 ** k for k in range(-14, -4) for m in (1, 3)) + (1e-4,)


def _near_cutoff_label(eps):
    return f"near-cutoff eps={eps:.0e}"


# near-cutoff items the library is known to fail (ROADMAP item 3), with the
# step that raises and the exception: label -> (step, exception name).  The
# family runs untimed after the timed loop; these failures are reported as the
# known defect, while any other failure, or one of these failing another way,
# makes the run incorrect.
KNOWN_FAILURES = {
    _near_cutoff_label(eps): ("realization", error)
    for eps, error in ((3e-9, "ResidualTooLarge"), (1e-8, "ResidualTooLarge"),
                       (3e-8, "NotAValidSuperchannel"),
                       (1e-7, "NotAValidSuperchannel"),
                       (3e-7, "NotAValidSuperchannel"))
}


def near_cutoff_family():
    q = sc.SuperchannelDims(2, 2, 2, 2)
    a = sc.random_superchannel(q, 1, seed=83, pre_rank=1)
    b = sc.random_superchannel(q, 2, seed=5)
    return a, b


def _round_trip(obj, kind, tracer):
    data = documents.document_bytes(documents.document_from_object(obj, kind))
    # the parse half of load_document, without the file read
    with _span(tracer, JSON_LOADS, {"bytes": len(data)}):
        doc = json.loads(data)
    return data, documents.object_from_document(doc)


class LibrarySmall:
    def __init__(self, config):
        self.dims = list(itertools.product(config["dims_per_system"],
                                           repeat=4))
        self.memory_dims = config["memory_dims"]

    def rounds(self, seed):
        for r in itertools.count():
            order = _rng(seed, r + 1, 0).permutation(len(self.dims))
            yield [("item", seed, r, int(i)) for i in order]

    known_verdicts = staticmethod(known_verdicts)

    def warm_up(self, seed):
        return _warm_up_item(self, ("item", seed, -1,
                                    self.dims.index((2, 2, 2, 2))))

    def near_cutoff(self):
        """Run the seed-independent near-cutoff family untimed; returns (known
        defect: the failures listed in ``KNOWN_FAILURES``, problems)."""
        a, b = near_cutoff_family()
        known, problems = [], []
        for k, eps in enumerate(NEAR_CUTOFF_EPS):
            inputs = {"label": _near_cutoff_label(eps),
                      "theta": sc.SuperchannelChoi((1.0 - eps) * a.op
                                                   + eps * b.op),
                      "channel": sc.choi_from_kraus(
                          _input_channel(2, 2, _rng(83, 5, k)))}
            _, failure, error = attempt(self, inputs, None)
            if failure is None:
                continue
            if error is not None and KNOWN_FAILURES.get(inputs["label"]) == (
                    error[0], type(error[1]).__name__):
                known.append(failure)
            else:
                problems.append(f"unexpected failure: {failure}")
        return known, problems

    def make(self, spec):
        _, seed, r, i = spec
        dims = self.dims[i]
        # every run of len(memory_dims) rounds pairs each dims tuple with
        # each memory dim once, so the work per round does not hang on the seed
        m = self.memory_dims[(r + i) % len(self.memory_dims)]
        rng = _rng(seed, r + 1, i + 1)
        inputs = _superchannel_item(dims, m, rng)
        d = sc.SuperchannelDims(*dims)
        inputs.update(
            first=_input_channel(d.a1, d.b1, rng),
            second=_input_channel(d.b1, d.b2, rng),
            rho=sc.random_density_matrix(d.a1, rng),
            eb=sc.random_eb_superchannel(d, 2, seed=rng),
            measure_prepare=sc.random_eb_measure_prepare(d, 2, seed=rng),
        )
        return inputs

    def run(self, inputs, out, tracer):
        _run_steps(out, chain_steps(inputs["theta"], inputs["channel"]))
        if "first" not in inputs:
            return
        first, rho = inputs["first"], inputs["rho"]
        _run_steps(out, (
            ("choi", lambda o: sc.convert_channel(first, "choi")),
            ("liouville", lambda o: sc.convert_channel(o["choi"], "liouville")),
            ("stinespring",
             lambda o: sc.convert_channel(o["liouville"], "stinespring")),
            ("kraus", lambda o: sc.convert_channel(o["stinespring"], "kraus")),
            ("composed", lambda o: sc.compose_channels(
                sc.convert_channel(inputs["second"], "choi"), o["choi"])),
            ("states", lambda o: [
                sc.apply_channel(rep, rho).matrix
                for rep in (first, o["choi"], o["liouville"],
                            o["stinespring"], o["kraus"])]),
            ("battery", lambda o: sc.ppt_battery(inputs["eb"].op)),
            ("documents", lambda o: [
                (obj, kind) + _round_trip(obj, kind, tracer)
                for obj, kind in (
                    (o["realization"].v, "operator"),
                    (o["choi"], "choi-channel"),
                    (first, "kraus-channel"),
                    (o["stinespring"], "stinespring"),
                    (o["liouville"], "liouville"),
                    (inputs["theta"], "superchannel-choi"),
                    (o["gour"], "gour"),
                    (inputs["measure_prepare"], "measure-prepare"))]),
        ))

    def check(self, inputs, out):
        problems = check_chain(inputs["theta"], out)
        if "first" not in inputs:
            return problems
        if not sc.validate_channel(out["choi"]).valid:
            problems.append("convert_channel to choi is not a valid channel")
        if not sc.validate_channel(out["composed"]).valid:
            problems.append("compose_channels output fails validate_channel")
        reference = out["states"][0]
        if abs(np.trace(reference) - 1.0) > STATE_ATOL:
            problems.append("apply_channel output does not have trace 1")
        if not all(np.allclose(s, reference, rtol=0.0, atol=STATE_ATOL)
                   for s in out["states"][1:]):
            problems.append("apply_channel disagrees across representations")
        type_ii = [v for v in out["battery"] if v.bipartition.left == TYPE_II]
        if len(type_ii) != 1 or not type_ii[0].is_ppt:
            problems.append("random_eb_superchannel is not Type-II PPT")
        for obj, kind, data, loaded in out["documents"]:
            again = documents.document_from_object(obj, kind)
            if documents.document_bytes(again) != data:
                problems.append(f"{kind}: saving twice gives different bytes")
            # value comparison: the entries must come back exactly (a
            # negative zero reads back as 0, which compares equal)
            if documents.document_from_object(loaded, kind) != again:
                problems.append(f"{kind}: save -> load round trip is not exact")
        return problems


# ----------------------------------------------------------------------
# cli_pipeline
# ----------------------------------------------------------------------

def _payload(stdout):
    return json.loads(stdout.decode() or "null")


class CliPipeline:
    """Each item is a chain of real ``superchan`` CLI processes.

    Untraced commands run ``python -m superchan.cli``; traced ones run
    ``launcher.py``, which installs the wrappers, calls ``superchan.cli.main``
    and writes its spans to a file that the worker adopts under the
    command's ``cli.process`` span.
    """

    def __init__(self, config, work_dir, env):
        self.shapes = [tuple(s) for s in config["shapes"]]
        self.memory_dim = config["memory_dims"][0]
        self.work_dir = work_dir
        self.env = env

    def rounds(self, seed):
        for r in itertools.count():
            yield [("item", seed, r, i, shape)
                   for i, shape in enumerate(self.shapes)]

    def _path(self, name):
        return os.path.join(self.work_dir, name)

    def make(self, spec):
        _, seed, r, i, shape = spec
        item_seed = int(_rng(seed, r + 1, i).integers(2 ** 31))
        a1, a2, b1, b2 = (str(x) for x in shape)
        mr = ("--format", "machine-readable")
        theta, chan, gour, back, applied = (
            self._path(n) for n in ("theta.json", "channel.json", "gour.json",
                                    "back.json", "applied.json"))
        commands = (
            ("gen", "superchannel", "--d-a1", a1, "--d-a2", a2, "--d-b1", b1,
             "--d-b2", b2, "--memory-dim", str(self.memory_dim),
             "--seed", str(item_seed), "--out", theta),
            ("gen", "channel", "--d-in", b1, "--d-out", a2, "--kraus-rank",
             str(_kraus_rank(shape[2], shape[1])),
             "--seed", str(item_seed + 1), "--out", chan),
            ("validate", theta) + mr,
            ("memory-cost", theta) + mr,
            ("realize", theta, "--out", self._path("realized")) + mr,
            ("breaking", theta) + mr,
            ("gour", theta, "--out", gour),
            ("gour", gour, "--inverse", "--out", back),
            ("apply", theta, chan, "--out", applied),
        )
        return {"label": f"{shape} seed={item_seed}", "commands": commands,
                "theta": theta, "back": back, "applied": applied}

    def _spawn(self, argv, tracer):
        if tracer is None:
            return subprocess.run(
                [sys.executable, "-m", "superchan.cli", *argv],
                cwd=self.work_dir, env=self.env, capture_output=True,
                timeout=CLI_TIMEOUT_S)
        spans_path = self._path("spans.jsonl")
        with tracer.span(PROCESS) as index:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "launcher.py"), spans_path,
                 *argv], cwd=self.work_dir, env=self.env, capture_output=True,
                timeout=CLI_TIMEOUT_S)
        tracer.spans[index][4] = {"exit": proc.returncode}
        if os.path.exists(spans_path):
            tracer.adopt(load_spans(spans_path), index)
            os.remove(spans_path)
        return proc

    def run(self, inputs, out, tracer):
        out["procs"] = []
        for argv in inputs["commands"]:
            out["step"] = argv[0]
            out["procs"].append(self._spawn(argv, tracer))
        del out["step"]

    def check(self, inputs, out):
        problems = []
        procs = out["procs"]
        for argv, proc in zip(inputs["commands"], procs):
            if proc.returncode != 0:
                problems.append(f"{' '.join(argv[:2])} exited {proc.returncode}: "
                                f"{proc.stderr.decode().strip()[-300:]}")
        if problems:
            return problems
        validate, cost, realized = (_payload(p.stdout) for p in procs[2:5])
        if validate.get("valid") is not True:
            problems.append("validate did not report valid: true")
        if cost.get("memory_cost") != realized.get("memory_dim"):
            problems.append(f"memory-cost {cost.get('memory_cost')} != realize "
                            f"memory_dim {realized.get('memory_dim')}")
        if not realized.get("residual", math.inf) <= REALIZE_TOL:
            problems.append(f"realize residual {realized.get('residual')}")
        with open(inputs["theta"], "rb") as fh:
            source = fh.read()
        with open(inputs["back"], "rb") as fh:
            if fh.read() != source:
                problems.append("gour --inverse is not byte-identical to the source")
        saved = json.loads(source)
        del saved["metadata"]
        loaded = documents.document_from_object(sc.load_document(inputs["theta"]))
        del loaded["metadata"]
        if loaded != saved:
            problems.append("superchannel document: save -> load is not exact")
        if not sc.validate_channel(sc.load_document(inputs["applied"])).valid:
            problems.append("apply output fails validate_channel")
        return problems

    def _breaking(self, gen_argv):
        """Machine-readable ``breaking`` report of a generated document."""
        path = self._path("known.json")
        for argv in (gen_argv + ("--out", path),
                     ("breaking", path, "--format", "machine-readable")):
            proc = self._spawn(argv, None)
            if proc.returncode != 0:
                return {}
        return _payload(proc.stdout)

    def warm_up(self, seed):
        """Two CLI processes: interpreter, imports and page cache warm."""
        if self._breaking(("gen", "depolarizing", "--p", "0.7")).get(
                "entanglement_breaking") is not True:
            return ["CLI: depolarizing 0.7 is not reported EB"]
        return []

    def known_verdicts(self):
        """The known verdicts, through the CLI."""
        breaking = self._breaking
        problems = self.warm_up(None)
        t1 = breaking(("gen", "type1-example"))
        if t1.get("type_I_ppt") is not True or t1.get("type_II_ppt") is not False:
            problems.append("CLI: type1-example is not Type-I PPT, Type-II NPT")
        if breaking(("gen", "eb-superchannel", "--seed", "53")).get(
                "type_II_ppt") is not True:
            problems.append("CLI: eb-superchannel is not Type-II PPT")
        return problems


def build(name, config, work_dir, env):
    if name == "cli_pipeline":
        return CliPipeline(config, work_dir, env)
    if name == "library_large":
        return LibraryLarge(config)
    return LibrarySmall(config)
