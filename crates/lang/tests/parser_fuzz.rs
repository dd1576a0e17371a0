//! Front-end robustness: the lexer/parser/type checker must return errors,
//! never panic, on arbitrary input — including near-miss mutations of
//! valid programs.

use proptest::prelude::*;

proptest! {
    #[test]
    fn arbitrary_strings_never_panic(src in ".{0,200}") {
        let _ = hps_lang::parse(&src);
    }

    #[test]
    fn arbitrary_token_soup_never_panics(tokens in prop::collection::vec(
        prop_oneof![
            Just("fn".to_string()), Just("var".to_string()), Just("while".to_string()),
            Just("if".to_string()), Just("else".to_string()), Just("return".to_string()),
            Just("{".to_string()), Just("}".to_string()), Just("(".to_string()),
            Just(")".to_string()), Just(";".to_string()), Just("=".to_string()),
            Just("+".to_string()), Just("int".to_string()), Just("x".to_string()),
            Just("1".to_string()), Just("1.5".to_string()), Just("[".to_string()),
            Just("]".to_string()), Just("->".to_string()), Just(",".to_string()),
            Just(":".to_string()), Just("self".to_string()), Just("class".to_string()),
        ],
        0..60,
    )) {
        let src = tokens.join(" ");
        let _ = hps_lang::parse(&src);
    }

    #[test]
    fn single_char_deletion_of_valid_program_never_panics(idx in 0usize..200) {
        let src = "global g: int = 1;\n\
                   class C { x: int; fn get() -> int { return self.x; } }\n\
                   fn f(a: int, b: float[]) -> int {\n\
                       var s: int = 0;\n\
                       var i: int;\n\
                       for (i = 0; i < a; i = i + 1) { s = s + i; }\n\
                       if (s > 10 && a != 0) { return s % a; }\n\
                       return int(b[0]) + g;\n\
                   }\n\
                   fn main() { print(f(3, new float[2])); }";
        if idx < src.len() && src.is_char_boundary(idx) {
            let mut mutated = String::with_capacity(src.len());
            mutated.push_str(&src[..idx]);
            mutated.push_str(&src[idx + 1..]);
            let _ = hps_lang::parse(&mutated);
        }
    }
}

/// Source nested past the parser's limit is a parse error at the level
/// that crosses it, not a stack overflow in the parser or a later pass.
#[test]
fn deep_nesting_is_a_parse_error() {
    let sum = format!("fn main() {{ print(1{}); }}", "+1".repeat(9_999));
    let parens = format!(
        "fn main() {{ print({}1{}); }}",
        "(".repeat(30_000),
        ")".repeat(30_000)
    );
    let ifs = format!(
        "fn main() {{ {}print(1);{} }}",
        "if (true) {".repeat(6_000),
        "}".repeat(6_000)
    );
    for src in [sum, parens, ifs] {
        let err = hps_lang::parse(&src).expect_err("too deep");
        assert!(err.to_string().starts_with("parse error"), "{err}");
        assert!(err.message().contains("nests deeper than"), "{err}");
    }
    // The block, the printed expression and 98 operators are 100 levels,
    // the limit; one more operator is past it.
    let at_limit = format!("fn main() {{ print(1{}); }}", "+1".repeat(98));
    hps_lang::parse(&at_limit).expect("at the limit");
    let past = format!("fn main() {{ print(1{}); }}", "+1".repeat(99));
    hps_lang::parse(&past).expect_err("one level past the limit");
}
