"""Byte-for-byte pins of every CSV the runner and the report write.

The reference writers below are test-local copies of the three writers the
runner used before the curve and rate rows were built by one row function:
the sidecar writers of `_persist` and the `csv` and `plotdata` branches of
`report`.  The records include a zero-hit row (log fraction -inf) and an eps
whose rate estimate failed, so both edge cases reach the files.
"""

import csv
import os

import pytest

from toruslab.config import parse_config
from toruslab.runner import load_record, report, run


def _ref_sidecars(rec: dict, outdir: str) -> list[str]:
    basin = rec["stages"]["basin"]
    curves = os.path.join(outdir, f"{rec['label']}_curves.csv")
    with open(curves, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["epsilon", "n", "hits", "samples", "log_fraction"])
        for c in basin["curves"]:
            for n, hits, samples, logf in c["rows"]:
                w.writerow([c["epsilon"], n, hits, samples, repr(logf)])
    rates = os.path.join(outdir, f"{rec['label']}_rates.csv")
    with open(rates, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["epsilon", "slope", "stderr", "n_min", "n_max",
                    "rows_used", "min_hits"])
        for r in basin.get("rates", []):
            w.writerow([r["epsilon"], repr(r["slope"]), repr(r["stderr"]),
                        r["window"][0], r["window"][1], r["rows_used"],
                        r["min_hits"]])
    return [curves, rates]


def _ref_report(record_paths: list[str], fmt: str, outdir: str) -> list[str]:
    records = [load_record(p) for p in record_paths]
    os.makedirs(outdir, exist_ok=True)
    written = []
    groups: dict[tuple, list[dict]] = {}
    for rec in records:
        key = (rec["family"]["truncation"], rec["family"]["version"])
        groups.setdefault(key, []).append(rec)
    multiple = len(groups) > 1
    if multiple:
        manifest = os.path.join(outdir, "report_warnings.txt")
        with open(manifest, "w", encoding="utf-8") as fh:
            fh.write("records use different test families; distance tables "
                     "were not merged across families\n")
            for key, recs in groups.items():
                fh.write(f"family K={key[0]} {key[1]}: "
                         + ", ".join(r["label"] for r in recs) + "\n")
        written.append(manifest)
    for (k, _version), recs in groups.items():
        suffix = f"_K{k}" if multiple else ""
        if fmt == "csv":
            path = os.path.join(outdir, f"curves{suffix}.csv")
            with open(path, "w", newline="", encoding="utf-8") as fh:
                w = csv.writer(fh)
                w.writerow(["label", "epsilon", "n", "hits", "samples",
                            "log_fraction"])
                for rec in recs:
                    st = rec["stages"].get("basin") or {}
                    for c in st.get("curves", []):
                        for n, hits, samples, logf in c["rows"]:
                            w.writerow([rec["label"], c["epsilon"], n, hits,
                                        samples, repr(logf)])
            written.append(path)
            path = os.path.join(outdir, f"rates{suffix}.csv")
            with open(path, "w", newline="", encoding="utf-8") as fh:
                w = csv.writer(fh)
                w.writerow(["label", "epsilon", "slope", "stderr", "n_min",
                            "n_max", "rows_used"])
                for rec in recs:
                    st = rec["stages"].get("basin") or {}
                    for r in st.get("rates", []):
                        w.writerow([rec["label"], r["epsilon"],
                                    repr(r["slope"]), repr(r["stderr"]),
                                    r["window"][0], r["window"][1],
                                    r["rows_used"]])
            written.append(path)
        else:
            for rec in recs:
                st = rec["stages"].get("basin") or {}
                for c in st.get("curves", []):
                    path = os.path.join(
                        outdir,
                        f"{rec['label']}_eps{c['epsilon']}{suffix}_curve.csv")
                    with open(path, "w", newline="", encoding="utf-8") as fh:
                        w = csv.writer(fh)
                        w.writerow(["n", "log_fraction"])
                        for n, _h, _s, logf in c["rows"]:
                            w.writerow([n, repr(logf)])
                    written.append(path)
                if st.get("rates"):
                    path = os.path.join(outdir,
                                        f"{rec['label']}{suffix}_sweep.csv")
                    with open(path, "w", newline="", encoding="utf-8") as fh:
                        w = csv.writer(fh)
                        w.writerow(["epsilon", "slope", "stderr"])
                        for r in st["rates"]:
                            w.writerow([r["epsilon"], repr(r["slope"]),
                                        repr(r["stderr"])])
                    written.append(path)
    return written


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """Two Dirac records (K=33 and K=17).  At eps=0.02 the basin is empty
    from n=3 on, so those rows have zero hits and the rate estimate fails;
    eps=0.3 and 0.2 keep finite log fractions and a rate estimate."""
    outdir = tmp_path_factory.mktemp("records")
    out = []
    for label, k in (("dirac33", 33), ("dirac17", 17)):
        cfg = parse_config({
            "label": label,
            "map": {"matrix": [[2, 1], [1, 1]]},
            "family": {"truncation": k},
            "grid": {"resolution": 32},
            "target": {"kind": "dirac", "point": [0.0, 0.0]},
            "basin": {"epsilons": [0.3, 0.2, 0.02],
                      "n_values": list(range(2, 11)), "window": [2, 10],
                      "min_hits": 3},
            "lyapunov": {"quad_grid": 16},
            "output_dir": str(outdir),
        })
        out.append(run(cfg, threads=1))
    return out


def test_records_cover_edge_cases(records):
    for rec in records:
        basin = rec["stages"]["basin"]
        logfs = [row[3] for c in basin["curves"] for row in c["rows"]]
        assert float("-inf") in logfs
        assert any(v > float("-inf") for v in logfs)
        assert "0.02" in basin["rate_errors"]
        assert basin["rates"]


def test_sidecars_bytes(records, tmp_path):
    for rec in records:
        outdir = os.path.dirname(rec["record_path"])
        ref = _ref_sidecars(load_record(rec["record_path"]), str(tmp_path))
        for ref_path in ref:
            got = os.path.join(outdir, os.path.basename(ref_path))
            assert _read(got) == _read(ref_path), os.path.basename(got)


@pytest.mark.parametrize("fmt, count", [
    ("csv", 1), ("csv", 2), ("plotdata", 1), ("plotdata", 2)])
def test_report_bytes(records, tmp_path, fmt, count):
    paths = [rec["record_path"] for rec in records[:count]]
    got = report(paths, fmt, str(tmp_path / "got"))
    ref = _ref_report(paths, fmt, str(tmp_path / "ref"))
    assert [os.path.basename(p) for p in got] \
        == [os.path.basename(p) for p in ref]
    if count == 2:
        assert "report_warnings.txt" in [os.path.basename(p) for p in got]
    for g, r in zip(got, ref):
        assert _read(g) == _read(r), os.path.basename(g)
