"""The benchmark's workloads: ``sweep``, ``catalog`` and ``cli``.

Each workload is a closed loop with one client: a request starts when the
previous one has finished.  A workload is split into

- ``__init__``: the seeded plan, plain data only, no library calls;
- ``setup()``: building the library objects or files the requests read;
- ``run(request)``: the timed call into the library or the CLI;
- ``fingerprint(request, output)``: an untimed, comparable summary;
- ``check(request, fingerprint)``: untimed problems found by the oracles,
  run once per distinct request.

Every library call goes through a module attribute (``sn.verify.X``), never
a name bound at import, so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import select
import subprocess
import sys
import time
from pathlib import Path

import inputs
import oracle

CLI_TIMEOUT_S = 60


def _report_fields(report) -> tuple:
    return (
        report.statement, report.status, report.lhs, report.rhs,
        report.relation, tuple(report.witnesses), report.detail,
    )


def _slope_pair(slope) -> tuple[int, int]:
    return (slope.p, slope.q)


class Workload:
    name = ""
    peak_child_kb = 0  # largest ru_maxrss among the processes requests spawn

    def __init__(self, sn, seed: int, workdir: Path) -> None:
        self.sn = sn
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.requests: list = []

    def setup(self) -> None:
        raise NotImplementedError

    def units(self, request) -> int:
        """Work done by one request, the unit of ``throughput_per_s``."""
        return 1

    def key(self, request):
        """Requests with equal keys must give equal outputs."""
        return request


# -- sweep ---------------------------------------------------------------------


class Sweep(Workload):
    """thm1 sweeps over the figure-eight and seeded random norm/lattice pairs.

    One cycle is 40 requests: 8 on the figure-eight and two on each of 16
    random instances (a quarter of them stretched so the sweep fails), with
    38 ranges stratified over [20, 96) and 2 over [100, 200).
    """

    name = "sweep"

    def __init__(self, sn, seed, workdir) -> None:
        super().__init__(sn, seed, workdir)
        self.instances = [inputs.family_instances()[0]] + [
            inputs.random_instance(self.rng, i, f"random-{i}") for i in range(16)
        ]
        ranges = inputs.stratified(self.rng, 20, 96, 38) + inputs.stratified(self.rng, 100, 200, 2)
        targets = [0] * 8 + list(range(1, 17)) * 2
        self.rng.shuffle(ranges)
        self.rng.shuffle(targets)
        self.requests = list(zip(targets, ranges))

    def setup(self) -> None:
        sn = self.sn
        self.manifolds = [sn.families.fig8_dataset()]
        for inst in self.instances[1:]:
            cusp = sn.cusp.CuspLattice(*inst.gram, maximal=inst.maximal)
            norm = sn.norm.CSNormData(tuple((sn.slopes.Slope(*s), a) for s, a in inst.terms))
            boundary = sn.norm.BoundarySlopeSet(tuple(sn.slopes.Slope(*s) for s in inst.boundary))
            self.manifolds.append(sn.manifold.ManifoldData(inst.name, boundary, cusp=cusp, norm=norm))

    def run(self, request):
        target, limit = request
        return self.sn.verify.sweep_norm_vs_length(self.manifolds[target], limit)

    def units(self, request) -> int:
        return oracle.slope_count(request[1])

    def fingerprint(self, request, output):
        return _report_fields(output)

    def check(self, request, fingerprint) -> list[str]:
        target, limit = request
        inst = self.instances[target]
        passed, total, first_bad = oracle.sweep(inst.scaled, inst.terms, limit)
        expected = (
            f"thm1[range {limit}]",
            "holds" if passed == total else "fails",
            f"{passed}/{total} slopes", "", "",
            (oracle.slope_text(first_bad),) if first_bad else (),
            "",
        )
        if fingerprint != expected:
            return [f"{inst.name} range {limit}: got {fingerprint}, oracle {expected}"]
        return []


# -- catalog ----------------------------------------------------------------------


class Catalog(Workload):
    """One request per document: load, the cusp and norm minimisations where
    data is present, standard_reports with a short sweep, then save.

    The corpus is the figure-eight, pretzel n = 7..99, two-bridge C = 4..100
    and 400 seeded random documents; one cycle visits each once.  The
    random documents cost 3-10 times more than the family ones; having
    most of the corpus random keeps req_p50_ms inside their cost range
    rather than at the edge between the two groups.
    """

    name = "catalog"

    def __init__(self, sn, seed, workdir) -> None:
        super().__init__(sn, seed, workdir)
        self.instances = inputs.family_instances() + [
            inputs.random_instance(self.rng, i, f"random-{i}") for i in range(400)
        ]
        order = list(range(len(self.instances)))
        self.rng.shuffle(order)
        # sweep ranges 2..6, spread evenly over the visiting order
        self.requests = [(doc, 2 + k % 5) for k, doc in enumerate(order)]

    def _path(self, kind: str, doc: int) -> Path:
        return self.workdir / f"{kind}-{doc}.json"

    def setup(self) -> None:
        write_documents(self.sn, self.instances, lambda doc: self._path("in", doc))

    def run(self, request):
        doc, sweep_range = request
        sn = self.sn
        m = sn.manifold.load(self._path("in", doc))
        systole = m.cusp.systole_squared() if m.cusp is not None else None
        least = vertices = None
        if m.norm is not None:
            least = m.norm.min_norm_nontrivial()
            vertices = m.norm.unit_ball_vertices()
        reports = sn.verify.standard_reports(m, sweep_range=sweep_range)
        sn.manifold.save(m, self._path("out", doc))
        return systole, least, vertices, reports

    def key(self, request):
        return request[0]

    def fingerprint(self, request, output):
        systole, least, vertices, reports = output
        return (
            (str(systole[0]), _slope_pair(systole[1])) if systole else None,
            (least[0], _slope_pair(least[1])) if least else None,
            tuple((str(x), str(y)) for x, y in vertices) if vertices else None,
            tuple(_report_fields(r) for r in reports),
            self._path("out", request[0]).read_text(encoding="utf-8"),
        )

    def check(self, request, fingerprint) -> list[str]:
        doc, sweep_range = request
        inst = self.instances[doc]
        systole, least, vertices, reports, saved = fingerprint
        problems = []
        text = oracle.document_text(inst.document())
        if self._path("in", doc).read_text(encoding="utf-8") != text:
            problems.append("input document differs from the oracle's")
        if saved != text:
            problems.append("save output differs from the canonical document")
        again = self._path("again", doc)
        self.sn.manifold.save(self.sn.manifold.load(self._path("out", doc)), again)
        if again.read_text(encoding="utf-8") != saved:
            problems.append("save -> load -> save changed the bytes")
        again.unlink()
        if inst.gram is not None:
            value, slope = oracle.systole(inst.scaled)
            if systole != (str(value), slope):
                problems.append(f"systole {systole}, oracle {(str(value), slope)}")
        if inst.terms is not None:
            problems += oracle.min_norm_problems(inst.terms, *least)
            expected = tuple((str(x), str(y)) for x, y in oracle.unit_ball(inst.terms))
            if vertices != expected:
                problems.append("unit ball vertices differ from the oracle's")
        problems += self._check_reports(inst, sweep_range, reports)
        return [f"{inst.name}: {p}" for p in problems]

    def _check_reports(self, inst, sweep_range, reports) -> list[str]:
        problems = []
        by_statement = {r[0]: r for r in reports}
        if inst.gram is not None and inst.terms is not None:
            checked = set(inst.boundary) | {oracle.MERIDIAN}
            for s in checked:
                got = by_statement.get(f"thm1({oracle.slope_text(s)})")
                want = oracle.thm1(inst.scaled, inst.terms, s)
                if got is None or got[1:4] != want:
                    problems.append(f"thm1({oracle.slope_text(s)}): got {got}, oracle {want}")
            passed, total, first_bad = oracle.sweep(inst.scaled, inst.terms, sweep_range)
            got = by_statement.get(f"thm1[range {sweep_range}]")
            want = (
                "holds" if passed == total else "fails",
                f"{passed}/{total} slopes",
                (oracle.slope_text(first_bad),) if first_bad else (),
            )
            if got is None or (got[1], got[2], got[5]) != want:
                problems.append(f"thm1[range {sweep_range}]: got {got}, oracle {want}")
        known = {}
        if inst.name == "figure-eight":
            known = {
                "thm3(4/1)": ("holds", "8", "4", ">"),
                "thm3(-4/1)": ("holds", "8", "4", ">"),
                "cor-ubdiam": ("equality", "8", "8", "="),
            }
        elif inst.name.startswith("pretzel"):
            known = {"prop4": ("holds",)}
        for statement, want in known.items():
            # fields after the statement: status, lhs, rhs, relation
            got = by_statement.get(statement)
            if got is None or got[1:1 + len(want)] != want:
                problems.append(f"{statement}: got {got}, known {want}")
        return problems


def write_documents(sn, instances, path_of) -> None:
    """Write the input documents: the families through the library's
    dataset functions, the random ones from the oracle's canonical text."""
    for doc, inst in enumerate(instances):
        if inst.family:
            function, *params = inst.family
            sn.manifold.save(getattr(sn.families, function)(*params), path_of(doc))
        else:
            path_of(doc).write_text(oracle.document_text(inst.document()), encoding="utf-8")


# -- cli ----------------------------------------------------------------------------


class Cli(Workload):
    """Fresh ``python -m slopenorm`` processes, one at a time.

    One cycle is 24 commands: report x6, verify all x4, verify thm3 x4,
    eval norm x3, eval length x3 and family pretzel --out x4, over the
    figure-eight, three pretzel, two two-bridge and six random documents.
    """

    name = "cli"

    def __init__(self, sn, seed, workdir, env=None) -> None:
        super().__init__(sn, seed, workdir)
        families = inputs.family_instances()
        pretzels = self.rng.sample(range(1, 48), 3)
        bridges = self.rng.sample(range(48, len(families)), 2)
        self.instances = [families[0]] + [families[i] for i in pretzels + bridges] + [
            inputs.random_instance(self.rng, i, f"random-{i}") for i in range(6)
        ]
        self.env = env
        docs = range(len(self.instances))
        with_norm = [i for i in docs if self.instances[i].terms is not None]
        pick = self.rng.choice
        # the first thm3 is on the figure-eight, whose output is known
        requests = [("verify", "thm3", "-m", self._doc_arg(0))]
        requests += [("verify", "thm3", "-m", self._doc_arg(pick(with_norm))) for _ in range(3)]
        requests += [("report", "-m", self._doc_arg(pick(docs))) for _ in range(6)]
        requests += [("verify", "all", "-m", self._doc_arg(pick(docs))) for _ in range(4)]
        for quantity in ("norm", "length"):
            requests += [
                ("eval", quantity, "-m", self._doc_arg(pick(with_norm)),
                 "-r", oracle.slope_text(inputs.finite_slope(self.rng, 12, 6)))
                for _ in range(3)
            ]
        for n in self.rng.sample(range(7, 100, 2), 4):
            requests.append(("family", "pretzel", "--n", str(n), "--out", self._out_arg(n)))
        self.rng.shuffle(requests)
        self.requests = requests

    def _doc_arg(self, doc: int) -> str:
        return str(self.workdir / f"doc-{doc}.json")

    def _out_arg(self, n: int) -> str:
        return str(self.workdir / f"family-{n}.json")

    def setup(self) -> None:
        write_documents(self.sn, self.instances, lambda doc: Path(self._doc_arg(doc)))

    def run(self, request):
        """One fresh interpreter per command; output files are read later."""
        with subprocess.Popen(
            [sys.executable, "-m", "slopenorm", *request],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=self.env, cwd=self.workdir,
        ) as proc:
            stdout = _read_until_eof(proc, CLI_TIMEOUT_S)
            # reaped here rather than by Popen, to read this child's peak memory
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_child_kb = max(self.peak_child_kb, usage.ru_maxrss)
        return proc.returncode, stdout.decode("utf-8")

    def run_in_process(self, request):
        """The same command through ``cli.run`` in this process."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.sn.cli.run(list(request))
        return code, out.getvalue()

    def fingerprint(self, request, output):
        code, stdout = output
        written = None
        if "--out" in request:
            written = Path(request[request.index("--out") + 1]).read_text(encoding="utf-8")
        return code, stdout, written

    def check(self, request, fingerprint) -> list[str]:
        code, stdout, written = fingerprint
        command = " ".join(request)
        problems = []
        if code not in (0, 1):
            problems.append(f"exit code {code}")
        reference = request
        if "--out" in request:
            i = request.index("--out") + 1
            reference = request[:i] + (str(Path(request[i]).with_suffix(".ref.json")),)
        ref_code, ref_stdout = self.run_in_process(reference)
        if (code, stdout) != (ref_code, ref_stdout):
            problems.append("exit code or stdout differs from the in-process run")
        if request[0] == "family":
            n = int(request[3])
            if written != oracle.document_text(oracle.pretzel_document(n)):
                problems.append("family output differs from the known pretzel document")
            os.unlink(reference[-1])
        elif request[0] == "eval":
            inst = self.instances[int(Path(request[3]).stem.removeprefix("doc-"))]
            slope = oracle.parse_slope(request[5])
            if request[1] == "norm":
                want = str(oracle.norm_value(inst.terms, *slope))
            else:
                want = str(oracle.squared_length(inst.scaled, slope))
            if stdout.split()[:1] != [want]:
                problems.append(f"printed {stdout.strip()!r}, oracle {want}")
        elif request[:2] == ("verify", "thm3") and request[3] == self._doc_arg(0):
            if stdout != "thm3(-4/1): holds: 8 > 4\nthm3(4/1): holds: 8 > 4\n":
                problems.append(f"figure-eight thm3 printed {stdout!r}")
        return [f"{command}: {p}" for p in problems]


def _read_until_eof(proc, timeout: float) -> bytes:
    """All of ``proc``'s stdout; kills it if that takes over ``timeout`` s."""
    deadline = time.monotonic() + timeout
    fd = proc.stdout.fileno()
    chunks = []
    while True:
        ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.monotonic()))
        if not ready:
            proc.kill()
            raise TimeoutError(f"no exit after {timeout} s")
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


WORKLOADS = {w.name: w for w in (Sweep, Catalog, Cli)}
