//! Golden tests over malformed `.tk` kernels: every diagnostic must name
//! the exact source position and render the documented caret snippet.
//! These lock the *shape* of the error experience — `file:line:col`,
//! offending line, caret under the offending column — not just the
//! message text.

use tilecc_frontend::compile_kernel;

/// Compile a malformed kernel and return its error, asserting position
/// and message substring.
fn expect_error(src: &str, line: usize, col: usize, contains: &str) -> String {
    let e = compile_kernel(src).expect_err("malformed kernel must not compile");
    assert!(
        e.message.contains(contains),
        "message {:?} does not contain {contains:?}",
        e.message
    );
    assert_eq!(
        (e.line, e.col),
        (line, col),
        "wrong source position for {:?}",
        e.message
    );
    e.render("bad.tk", src)
}

#[test]
fn non_uniform_access_names_the_index() {
    let src = "\
kernel bad
param N = 8
iter t = 1 to N
iter i = 1 to N
array A = bnd()
A[t,i] = A[t-1,2*i]
";
    // Column of the `2` in `2*i` (index 2 of the read, 1-based).
    let rendered = expect_error(src, 6, 16, "non-uniform access: index 2 of `A`");
    assert!(rendered.starts_with("bad.tk:6:16: non-uniform access"));
    assert!(rendered.contains("  6 | A[t,i] = A[t-1,2*i]"));
    // Caret sits under column 16.
    let caret_line = rendered.lines().last().unwrap();
    assert_eq!(caret_line, format!("    | {}^", " ".repeat(15)));
}

#[test]
fn unbound_index_variable_is_located() {
    let src = "\
kernel bad
param N = 8
iter t = 1 to N
iter i = 1 to N
array A = bnd()
A[t,i] = A[t-1,k]
";
    let rendered = expect_error(src, 6, 16, "unknown identifier `k`");
    assert!(rendered.contains("  6 | A[t,i] = A[t-1,k]"));
}

#[test]
fn negative_lag_cycle_is_located_at_the_read() {
    let src = "\
kernel bad
param N = 8
iter t = 1 to N
iter i = 1 to N
array A = bnd()
A[t,i] = 0.5*A[t,i+1]
";
    let rendered = expect_error(src, 6, 14, "negative-lag cycle");
    assert!(rendered.contains("dependence offset (0,-1)"));
    assert!(rendered.contains("  6 | A[t,i] = 0.5*A[t,i+1]"));
}

#[test]
fn zero_offset_self_read_is_rejected() {
    let src = "\
kernel bad
param N = 8
iter i = 1 to N
array A = bnd()
A[i] = A[i] + 1
";
    expect_error(src, 5, 8, "reads the point being written");
}

#[test]
fn non_unimodular_skew_points_at_the_skew() {
    let src = "\
kernel bad
param N = 8
iter t = 1 to N
iter i = 1 to N
skew = [2,0; 0,1]
array A = bnd()
A[t,i] = A[t-1,i]
";
    expect_error(src, 5, 1, "skew matrix must be unimodular");
}

#[test]
fn skew_breaking_a_dependence_names_both_vectors() {
    let src = "\
kernel bad
param N = 8
iter t = 1 to N
iter i = 1 to N
skew = [0,1; 1,0]
array A = bnd()
A[t,i] = A[t-1,i+2]
";
    let rendered = expect_error(src, 5, 1, "not lexicographically positive");
    assert!(
        rendered.contains("(1,-2)") && rendered.contains("(-2,1)"),
        "must name original and mapped dependence: {rendered}"
    );
}

#[test]
fn unknown_array_on_lhs_is_located() {
    let src = "\
kernel bad
param N = 8
iter i = 1 to N
array A = bnd()
B[i] = A[i-1]
";
    expect_error(src, 5, 1, "unknown array `B`");
}

#[test]
fn duplicate_name_is_located_at_the_redefinition() {
    let src = "\
kernel bad
param N = 8
iter i = 1 to N
iter i = 1 to N
array A = bnd()
A[i] = A[i-1]
";
    expect_error(src, 4, 6, "name `i` is already defined");
}

#[test]
fn declared_but_unread_dependence_points_at_deps() {
    let src = "\
kernel bad
param N = 8
iter i = 1 to N
deps = (1), (2)
array A = bnd()
A[i] = A[i-1]
";
    expect_error(src, 4, 1, "declared dependence (2) is never read");
}

#[test]
fn lexical_error_names_the_character() {
    let src = "\
kernel bad
param N = 8
iter i = 1 to N
array A = bnd()
A[i] = A[i-1] @ 2
";
    expect_error(src, 5, 15, "unexpected character `@`");
}

#[test]
fn overflowing_float_literal_is_located() {
    // 401 digits before the point: parses as `inf` unless rejected.
    let big = format!("1{}.5", "0".repeat(400));
    let src = format!(
        "\
kernel bad
param N = 8
iter i = 1 to N
array A = {big}
A[i] = A[i-1]
"
    );
    let rendered = expect_error(&src, 4, 11, "invalid float literal `1000");
    assert!(rendered.starts_with("bad.tk:4:11: invalid float literal"));
}

#[test]
fn missing_statement_for_declared_array() {
    let src = "\
kernel bad
param N = 8
iter i = 1 to N
array A = bnd()
array B = bnd()
A[i] = A[i-1] + B[i-1]
";
    let e = compile_kernel(src).expect_err("must fail");
    assert!(e.message.contains("array `B` is never written"), "{e}");
}

#[test]
fn render_survives_out_of_range_line() {
    // A TkError pointing past the end of the source must degrade to the
    // bare position line rather than panic.
    let e = tilecc_frontend::TkError::new(99, 1, "boom");
    let rendered = e.render("bad.tk", "kernel x\n");
    assert_eq!(rendered, "bad.tk:99:1: boom");
}
