"""Set-up probe, run in a fresh interpreter by the benchmark.

Imports betakotz, runs one warm-up op of the named workload, then
writes "ready" to stdout.  The benchmark times from starting this
process to reading that line.

    python bench/setup_probe.py <workload> [warm-up portfolio CSV]
"""

import sys


def main(argv):
    workload = argv[1]
    if workload == "cli-mix":
        import io
        from contextlib import redirect_stdout
        from betakotz import cli
        with redirect_stdout(io.StringIO()):
            cli.main(["measures", "--a", "1.2", "--b", "11.4",
                      "--output-format", "json"])
    elif workload == "risk-sweep":
        import betakotz as bk
        bk.report(bk.BetaKotzParams(1.2, 11.4), 0.99)
    elif workload == "portfolio-month":
        from betakotz import credit
        rep = credit.period_report("warm-up", credit.read_portfolio_csv(argv[2]))
        credit.report_to_json(rep)
        credit.report_to_csv(rep)
    elif workload == "fit-samples":
        import random
        import betakotz as bk
        rng = random.Random(0)
        stats = bk.stats_from_samples([rng.betavariate(2.0, 30.0)
                                       for _ in range(200)])
        bk.fit_moments(stats)
        bk.fit_mle(stats)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    sys.stdout.write("ready\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main(sys.argv)
