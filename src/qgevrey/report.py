"""Machine-readable reports and CSV emission.

Reports are JSON with insertion-ordered (stable) fields and no
timestamps, so identical config + seed reproduces byte-identical output.
CSV follows RFC 4180 with '.' decimal separator and 17 significant
digits; complex quantities occupy a re/im column pair.
"""

from __future__ import annotations

import csv
import json
import os

from .records import field, record


def fmt(x) -> str:
    """17-significant-digit decimal rendering of one real number."""
    return "%.17g" % float(x)


@record
class Report:
    command: str
    config: str
    seed: int | None  # None where nothing is sampled
    checks: list = field(default_factory=list)

    def add(self, name: str, status: str, tolerance_provenance: str,
            **values):
        entry = {"name": name, "status": status}
        for key in sorted(values):
            v = values[key]
            entry[key] = [v.real, v.imag] if isinstance(v, complex) else v
        entry["tolerance_provenance"] = tolerance_provenance
        self.checks.append(entry)
        return entry

    @property
    def all_pass(self) -> bool:
        return all(c["status"] != "fail" for c in self.checks)

    @property
    def n_failed(self) -> int:
        return sum(1 for c in self.checks if c["status"] == "fail")

    def to_dict(self) -> dict:
        return {"command": self.command, "config": self.config,
                "seed": self.seed, "all_pass": self.all_pass,
                "n_checks": len(self.checks), "n_failed": self.n_failed,
                "checks": self.checks}

    def write(self, out_dir: str, name: str) -> str:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            # one write: json.dump issues one per token
            fh.write(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    def print_summary(self, stream=None):
        import sys
        stream = stream or sys.stdout
        for c in self.checks:
            label = c["status"].upper()
            detail = ", ".join(
                "%s=%s" % (k, v) for k, v in c.items()
                if k not in ("name", "status", "tolerance_provenance"))
            print("[%s] %s  (%s)" % (label, c["name"], detail), file=stream)
        print("%d/%d checks passed" % (len(self.checks) - self.n_failed,
                                       len(self.checks)), file=stream)


def write_csv(out_dir: str, name: str, header: list[str], rows) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            out = []
            for cell in row:
                if isinstance(cell, complex):
                    raise ValueError("complex cells must be split re/im")
                if isinstance(cell, float):
                    out.append(fmt(cell))
                else:
                    out.append(cell)
            writer.writerow(out)
    return path
