"""Section 6.4 walk-through: DSP filter — selection, floorplan, SystemC.

Maps the six-core DSP filter application, selects the butterfly (the
paper's Figure 10(b): four 3x3 switches survive pruning), shows the
floorplan, and writes the generated SystemC design plus the
machine-readable netlist next to this script.

Run:  python examples/dsp_generate_systemc.py
"""

import pathlib

from repro import Constraints, MapperConfig, dsp_filter, run_sunmap

OUT_DIR = pathlib.Path(__file__).parent / "out"


def main() -> None:
    app = dsp_filter()
    report = run_sunmap(
        app,
        routing="MP",
        objective="hops",
        # The DSP's 600 MB/s stream links exceed the video apps'
        # conservative 500 MB/s assumption; Section 6.4 clearly ran with
        # roomier links.
        constraints=Constraints(link_capacity_mb_s=1000.0),
        config=MapperConfig(max_rounds=10),
    )
    print(report.summary())
    print()

    best = report.best
    print("floorplan (Figure 10(b) style):")
    fp = best.floorplan
    for key, rect in sorted(fp.rects.items(), key=lambda kv: kv[1].x):
        label = (
            app.core(key[1]).name if key[0] == "core" else f"switch {key[1]}"
        )
        print(
            f"  {label:<14} at ({rect.x:5.2f}, {rect.y:5.2f}) "
            f"size {rect.w:4.2f} x {rect.h:4.2f} mm"
        )
    print(f"  chip: {fp.width_mm:.2f} x {fp.height_mm:.2f} mm "
          f"({fp.area_mm2:.1f} mm2, {fp.whitespace_fraction * 100:.0f}% "
          f"whitespace)")
    print()

    OUT_DIR.mkdir(exist_ok=True)
    cpp = OUT_DIR / "dsp_butterfly.cpp"
    cpp.write_text(report.systemc, encoding="utf-8")
    netlist_json = OUT_DIR / "dsp_butterfly_netlist.json"
    netlist_json.write_text(report.netlist.to_json(), encoding="utf-8")
    print(f"SystemC written to  {cpp}")
    print(f"netlist written to  {netlist_json}")
    print()
    print("SystemC head:")
    for line in report.systemc.splitlines()[:12]:
        print(f"  {line}")


if __name__ == "__main__":
    main()
