//! Round-trip properties across crates: XML ↔ data trees, DTD text ↔
//! structures, constraint syntax ↔ ASTs, and countermodel instances ↔
//! real validated documents.

use rand::Rng;
use xic::prelude::*;

#[test]
fn generated_object_documents_round_trip_through_xml() {
    let schema = ObjSchema::person_dept();
    let dtdc = schema.to_dtdc();
    let mut rng = xic_integration_tests::rng(7);
    for n in [1, 3, 9] {
        let inst = schema.generate_instance(n, &mut rng);
        let tree = schema.export(&inst);
        let xml = format!(
            "<!DOCTYPE db [\n{}]>\n{}",
            serialize_dtd(dtdc.structure()),
            serialize_document(&tree)
        );
        let doc = parse_document(&xml).unwrap();
        // Same shape, same validity.
        assert_eq!(doc.tree.len(), tree.len());
        let report = validate(&doc.tree, &dtdc);
        assert!(report.is_valid(), "n={n}: {report}");
        // The embedded DTD also parses to an equivalent structure.
        let dtd = doc.dtd.unwrap();
        assert_eq!(dtd.root(), dtdc.structure().root());
        for tau in dtdc.structure().element_types() {
            assert_eq!(
                dtd.content_model(tau).map(ToString::to_string),
                dtdc.structure().content_model(tau).map(ToString::to_string)
            );
        }
    }
}

#[test]
fn generated_relational_documents_round_trip_through_xml() {
    let schema = RelSchema::publishers_editors();
    let dtdc = schema.to_dtdc();
    let mut rng = xic_integration_tests::rng(8);
    let inst = schema.generate_instance(6, &mut rng);
    let tree = schema.export(&inst);
    let xml = format!(
        "<!DOCTYPE db [\n{}]>\n{}",
        serialize_dtd(dtdc.structure()),
        serialize_document(&tree)
    );
    let doc = parse_document(&xml).unwrap();
    assert_eq!(doc.tree.len(), tree.len());
    assert!(validate(&doc.tree, &dtdc).is_valid());
}

#[test]
fn constraint_syntax_round_trips_for_all_forms() {
    let s = xic::constraints::examples::company_structure();
    for src in [
        "person.oid ->id person",
        "person.name -> person",
        "dept.manager <= person.oid",
        "person.in_dept <=s dept.oid",
        "dept.has_staff <=> person.in_dept",
    ] {
        let c = Constraint::parse(src, &s, Language::Lid).unwrap();
        let printed = c.to_string();
        let again = Constraint::parse(&printed, &s, Language::Lid).unwrap();
        assert_eq!(c, again, "{src} → {printed}");
    }
}

#[test]
fn countermodels_become_real_validated_documents() {
    // Take L_id countermodels from the solver, materialize them as data
    // trees, and check that the generated structure accepts Σ and the
    // structural half of Definition 2.4 accepts the trees. Then load each
    // under Σ ∪ {φ}: the tree, stream and live validators must agree byte
    // for byte, find no violation of Σ, and find φ violated.
    let sigma = xic::constraints::examples::company_dtdc()
        .constraints()
        .to_vec();
    let structure = xic::constraints::examples::company_structure();
    let solver = LidSolver::new(&sigma, Some(&structure));
    let non_implied = [
        Constraint::unary_key("person", "address"),
        Constraint::Id { tau: "db".into() },
    ];
    for phi in non_implied {
        let v = solver.implies_with(&phi, Some(&structure));
        let m = v.countermodel().expect("countermodel");
        let (gen_structure, tree) = xic::implication::semantics::instance_to_tree(m, &sigma);
        let dtdc = DtdC::new(gen_structure.clone(), Language::Lid, sigma.clone())
            .unwrap_or_else(|e| panic!("{phi}: Σ does not load: {e:?}"));
        let report = Validator::new(&dtdc).validate_structure(&tree);
        assert!(report.is_valid(), "{phi}: {report}");

        let with_phi = [sigma.clone(), vec![phi.clone()]].concat();
        let dtdc = DtdC::new(gen_structure.clone(), Language::Lid, with_phi)
            .unwrap_or_else(|e| panic!("{phi}: Σ ∪ {{φ}} does not load: {e:?}"));
        let validator = Validator::new(&dtdc);
        // Serialized the way `xic implies --emit-countermodel` writes it.
        let xml = format!(
            "<!DOCTYPE {} [\n{}]>\n{}",
            gen_structure.root(),
            serialize_dtd(&gen_structure),
            serialize_document(&tree)
        );
        let tree_report = validator.validate(&tree).to_string();
        let stream_report = validator.validate_stream(&xml).unwrap().to_string();
        let live_report = LiveValidator::new(&validator, tree).report().to_string();
        assert_eq!(stream_report, tree_report, "{phi}: stream ≠ tree");
        assert_eq!(live_report, tree_report, "{phi}: live ≠ tree");
        let violations = validator.validate_stream(&xml).unwrap().violations;
        let phi_name = phi.to_string();
        for violation in &violations {
            assert_eq!(
                violated_constraint(violation),
                Some(phi_name.as_str()),
                "{phi}: the countermodel violates more than φ: {violation}"
            );
        }
        assert!(
            !violations.is_empty(),
            "{phi}: the countermodel satisfies φ"
        );
    }
}

/// The printed constraint a violation names (`None` for a structural one).
fn violated_constraint(v: &Violation) -> Option<&str> {
    match v {
        Violation::Key { constraint, .. }
        | Violation::ForeignKey { constraint, .. }
        | Violation::MissingField { constraint, .. }
        | Violation::DuplicateId { constraint, .. }
        | Violation::Inverse { constraint, .. } => Some(constraint),
        _ => None,
    }
}

#[test]
fn random_content_models_round_trip_and_agree() {
    // Random content models: parse(display(m)) == m, and all three
    // matchers agree on sampled words plus mutations.
    let mut rng = xic_integration_tests::rng(9);
    for _ in 0..60 {
        let m = random_model(&mut rng, 4);
        let printed = m.to_string();
        let again =
            ContentModel::parse(&printed).unwrap_or_else(|e| panic!("reparse {printed}: {e}"));
        // The parser left-associates, so trees may differ structurally —
        // but printing is stable and the languages must coincide.
        assert_eq!(again.to_string(), printed);
        let again_dfa = Dfa::from_model(&again);

        let nfa = Nfa::build(&m);
        let dfa = Dfa::build(&nfa);
        for _ in 0..20 {
            let mut w = m.sample(&mut rng, 0.4);
            assert!(dfa.matches(&w) && nfa.matches(&w) && m.matches_derivative(&w));
            // Mutate: push/pop a random symbol.
            if rng.gen_bool(0.5) {
                w.push(Symbol::elem(format!("e{}", rng.gen_range(0..3))));
            } else {
                w.pop();
            }
            let d = m.matches_derivative(&w);
            assert_eq!(dfa.matches(&w), d, "{printed} / {w:?}");
            assert_eq!(nfa.matches(&w), d, "{printed} / {w:?}");
            assert_eq!(again_dfa.matches(&w), d, "reparsed {printed} / {w:?}");
        }
    }
}

fn random_model(rng: &mut impl Rng, depth: usize) -> ContentModel {
    if depth == 0 || rng.gen_bool(0.35) {
        return match rng.gen_range(0..5) {
            0 => ContentModel::S,
            1 => ContentModel::Epsilon,
            _ => ContentModel::elem(format!("e{}", rng.gen_range(0..3))),
        };
    }
    match rng.gen_range(0..3) {
        0 => ContentModel::alt(random_model(rng, depth - 1), random_model(rng, depth - 1)),
        1 => ContentModel::seq(random_model(rng, depth - 1), random_model(rng, depth - 1)),
        _ => ContentModel::star(random_model(rng, depth - 1)),
    }
}
