"""One fresh `fwconform` process, as `fwconform run` starts.

    python3 setup_probe.py <src-dir> <scenario-file> [run]

Imports the package from <src-dir>, reads the scenario file, parses and
validates it, and prints ``ready <problem count>``; the parent times the
process from its start to that line. With ``run`` it goes on to run the
campaign and export the machine report, as ``fwconform run --out``
does, and prints ``rss <peak resident kB>``.
"""

import resource
import sys

sys.path.insert(0, sys.argv[1])

import fwconform  # noqa: E402

with open(sys.argv[2], encoding="utf-8") as handle:
    scenario = fwconform.parse_scenario(handle.read())
problems = fwconform.validate_scenario(scenario)
print(f"ready {len(problems)}", flush=True)
if len(sys.argv) > 3 and sys.argv[3] == "run":
    fwconform.export_report(fwconform.run_campaign(scenario), "machine")
    print(f"rss {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}", flush=True)
