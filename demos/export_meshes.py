"""Drive the command line interface in process and look at what it writes.

Same entry point as the installed `psfront` command. Everything lands in
./demo_out: inspect the OBJ in any mesh viewer, the CSV in anything that
reads tables.
"""

import pathlib

from psfront.cli import main

out = pathlib.Path("demo_out")

main(["generate", "--preset", "pseudosphere", "--grid", "65",
      "--lambda", "0.5,1,2", "--out", str(out)])

main(["generate", "--preset", "pseudosphere", "--grid", "65", "--format",
      "csv", "--glyphs", "--curves", "--out", str(out)])

main(["generate", "--preset", "c0_kink", "--amplitude", "0.75", "--grid", "65",
      "--format", "ply", "--out", str(out)])

with open(out / "c0_kink0.75_lam1_n65.ply") as fh:
    header = iter(fh.readline, "end_header\n")
    count = {w[1]: int(w[2]) for w in map(str.split, header)
             if w[0] == "element"}
print(f"kink mesh: {count['vertex']} vertices, {count['face']} quads")

rc = main(["verify", "--preset", "pseudosphere", "--grid", "129",
           "--out", str(out)])
print(f"verify exit code: {rc}")

print("\nfiles written:")
for p in sorted(out.iterdir()):
    print(f"  {p.name}  ({p.stat().st_size} bytes)")
