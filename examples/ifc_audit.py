"""Information flow control demo (the Figure 5b application).

The paper's IFC prototype flags flows from data marked ``Secure`` (such as a
``Password``) into operations marked ``Insecure`` (such as printing).  The
example below reproduces that exact scenario, including the *implicit* flow:
the insecure print is only conditionally executed based on a comparison with
the password, which is still a leak.

Run with::

    python examples/ifc_audit.py
"""

from repro import IfcChecker, IfcPolicy, render_report


SOURCE = """
struct Password { value: u32 }
struct Session { user: u32, token: u32 }

extern fn insecure_print(x: u32);
extern fn secure_log(x: u32);
extern fn hash(x: u32) -> u32;

// Leaks the password hash directly to an insecure sink.
fn leak_direct(p: &Password) {
    let h = hash(p.value);
    insecure_print(h);
}

// Leaks one bit of the password via control flow (Figure 5b's case):
// whether the print happens at all reveals information about the password.
fn leak_implicit(p: &Password, guess: u32) {
    if guess == p.value {
        insecure_print(1);
    }
}

// No leak: only public session data reaches the insecure sink, and the
// password only flows to the secure logger.
fn audit_session(s: &Session, p: &Password) {
    insecure_print(s.user);
    secure_log(p.value);
}
"""


def main() -> None:
    policy = (
        IfcPolicy()
        .mark_type_secret("Password")
        .mark_function_insecure("insecure_print")
    )
    checker = IfcChecker.from_source(SOURCE, policy)

    print("=" * 72)
    print("IFC audit of the example program")
    print("=" * 72)
    print(render_report(checker.check_all()))
    print()

    print("Per-function verdicts:")
    for fn_name in ("leak_direct", "leak_implicit", "audit_session"):
        violations = checker.check_function(fn_name)
        verdict = "LEAK" if violations else "ok"
        print(f"  {fn_name:16} {verdict}")
        for violation in violations:
            print(f"      {violation.render()}")


if __name__ == "__main__":
    main()
