import hashlib
from fractions import Fraction

import pytest

from isobound import (
    FAMILIES,
    OrderCapError,
    ParameterError,
    gamma,
    iota,
    ir,
    is_dominating,
    is_k_isolating,
    is_maximal_irredundant,
    packing_bound,
)
from isobound.families import (
    _Layout,
    gen_Dkt,
    gen_Fks,
    gen_G1,
    gen_G2,
    gen_Gkl,
    gen_Hksl,
    gen_Sk,
    gen_five_thirds,
    gen_subcubicH,
    make_instance,
)
from isobound.harness import certify_family


class TestRegistry:
    def test_all_names_present(self):
        assert set(FAMILIES) == {
            "G1", "G2", "Gkl", "Dkt", "subcubicH", "fivethirds", "Sk", "Fks", "Hksl",
        }


class TestG1:
    def test_structure(self):
        inst = gen_G1(3, 4)
        g = inst.graph
        assert g.n == 12 and g.max_degree() == 3
        assert inst.claimed_ir == inst.claimed_gamma == inst.claimed_iota == 3
        assert is_maximal_irredundant(g, inst.witness_irredundant)
        assert is_k_isolating(g, inst.witness_isolating, 4)

    def test_solver_agreement(self):
        for t in (1, 2, 3):
            for k in (1, 2, 3, 4):
                inst = gen_G1(t, k)
                assert ir(inst.graph).value == t
                assert iota(inst.graph, k).value == t
                assert gamma(inst.graph).value == t

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            gen_G1(0, 3)
        with pytest.raises(ParameterError):
            gen_G1(2, 0)


class TestG2:
    def test_structure(self):
        inst = gen_G2(2, 3)
        g = inst.graph
        assert g.n == 2 * 2 * 3 + 2 * 2
        assert g.max_degree() == 3
        assert inst.claimed_ir == inst.claimed_iota == 4

    def test_solver_agreement(self):
        for t in (1, 2):
            for k in (2, 3):
                inst = gen_G2(t, k)
                assert ir(inst.graph).value == 2 * t
                assert iota(inst.graph, k).value == 2 * t

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            gen_G2(1, 1)


class TestDkt:
    def test_solver_agreement(self):
        for k in (1, 2):
            for t in (1, 2):
                inst = gen_Dkt(k, t)
                assert ir(inst.graph).value == 2 * t
                assert gamma(inst.graph).value == 3 * t
                assert iota(inst.graph, k).value == 3 * t

    def test_max_degree(self):
        assert gen_Dkt(2, 1).graph.max_degree() == 4

    def test_packing_matches(self):
        inst = gen_Dkt(2, 2)
        bound = packing_bound(inst.graph, 2, inst.designated_cliques)
        assert bound == 6

    def test_parameter_validation(self):
        for k, t in ((0, 1), (1, 0)):
            message = f"^Dkt needs k >= 1 and t >= 1, got k={k}, t={t}$"
            with pytest.raises(ParameterError, match=message):
                gen_Dkt(k, t)


class TestSubcubicH:
    def test_solver_agreement(self):
        for c in (2, 3):
            inst = gen_subcubicH(c)
            assert inst.graph.max_degree() == 3
            assert ir(inst.graph).value == 2 * c
            assert gamma(inst.graph).value == 3 * c

    def test_ratio_three_halves(self):
        inst = gen_subcubicH(3)
        assert Fraction(gamma(inst.graph).value, ir(inst.graph).value) == Fraction(3, 2)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError, match="^subcubicH needs c >= 1, got c=0$"):
            gen_subcubicH(0)


class TestFiveThirds:
    def test_exact_ratio(self):
        inst = gen_five_thirds()
        g = inst.graph
        assert g.n == 24 and g.max_degree() == 4
        assert gamma(g).value == 10
        assert ir(g).value == 6
        assert Fraction(10, 6) == Fraction(5, 3)
        assert is_maximal_irredundant(g, inst.witness_irredundant)
        assert is_dominating(g, inst.witness_dominating)


class TestGkl:
    def test_reference_instance(self):
        inst = gen_Gkl(6, 3)
        g = inst.graph
        assert g.n == 90
        assert g.max_degree() == 7
        assert inst.k == 6
        assert len(inst.witness_irredundant) == 9
        assert len(inst.witness_isolating) == 12
        assert is_maximal_irredundant(g, inst.witness_irredundant)
        assert is_k_isolating(g, inst.witness_isolating, 6)
        assert packing_bound(g, 6, inst.designated_cliques) == 12

    def test_length_validation(self):
        # the growth condition fails once the floor drops below 4l
        with pytest.raises(ParameterError):
            gen_Gkl(6, 4)
        with pytest.raises(ParameterError):
            gen_Gkl(5, 1)


class TestSkFks:
    def test_sk_audit(self):
        inst = gen_Sk(3)
        assert inst.graph.max_degree() == 4
        assert inst.graph.n == 23

    def test_sk_requires_k3(self):
        with pytest.raises(ParameterError):
            gen_Sk(2)

    def test_fks_audit(self):
        inst = gen_Fks(4, 2)
        assert inst.graph.max_degree() == 5

    def test_fks_s_range(self):
        with pytest.raises(ParameterError):
            gen_Fks(4, 3)
        with pytest.raises(ParameterError):
            gen_Fks(4, 0)


class TestHksl:
    def test_reference_instance(self):
        inst = gen_Hksl(8, 6)
        g = inst.graph
        assert g.n == 404
        assert g.max_degree() == 9
        assert inst.params["l"] == 7
        assert inst.params["r"] == 3
        assert inst.params["rprime"] == 3
        assert inst.claimed_iota == 38
        assert inst.claimed_ir == 30
        assert len(inst.witness_isolating) == 38
        assert len(inst.witness_irredundant) == 30
        assert is_maximal_irredundant(g, inst.witness_irredundant)
        assert is_k_isolating(g, inst.witness_isolating, 8)
        bound = packing_bound(g, 8, inst.designated_cliques)
        assert bound == 38

    def test_smaller_instance(self):
        inst = gen_Hksl(5, 3)
        g = inst.graph
        assert g.n == 161
        assert g.max_degree() == 6
        assert inst.params["l"] == 4
        assert inst.params["r"] == 0
        assert inst.claimed_iota == 23
        assert is_maximal_irredundant(g, inst.witness_irredundant)
        assert is_k_isolating(g, inst.witness_isolating, 5)
        bound = packing_bound(g, 5, inst.designated_cliques)
        assert bound == inst.claimed_iota == len(inst.witness_isolating)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            gen_Hksl(8, 1)
        with pytest.raises(ParameterError):
            gen_Hksl(8, 7)
        with pytest.raises(ParameterError):
            gen_Hksl(3, 2)
        # leftover r = 3 > k-3 = 1: tail wiring cannot saturate
        with pytest.raises(ParameterError):
            gen_Hksl(4, 2)


class TestOrderCap:
    def test_layout_refuses_before_it_grows(self):
        # the vertex that would pass the cap is refused before any name,
        # edge or vertex id of its step is made
        lay = _Layout()
        lay.numbered("x", 500)
        message = "^order at least 513 outside supported range 0..512$"
        for grow in (lambda: lay.clique("K", 13), lambda: lay.add(*"abcdefghijklm")):
            with pytest.raises(OrderCapError, match=message):
                grow()
            assert lay.n == 500 and lay.edges == [] and len(lay.labels) == 500
        assert lay.numbered("y", 12) == list(range(500, 512))

    def test_family_above_the_cap(self):
        with pytest.raises(OrderCapError, match="^order at least 2000 "):
            gen_G1(1, 2000)
        with pytest.raises(OrderCapError, match="^order at least 514 "):
            gen_G1(300, 2)


class TestLabels:
    def test_g1_labels_cover_vertices(self):
        inst = gen_G1(2, 3)
        assert sorted(set(inst.labels.values())) == list(range(inst.graph.n))

    def test_gkl_labels_cover_vertices(self):
        inst = gen_Gkl(6, 1)
        assert sorted(set(inst.labels.values())) == list(range(inst.graph.n))


class TestCertifyFamily:
    def test_row_shape(self):
        row, failures = certify_family("G1", {"t": 2, "k": 3})
        assert failures == []
        assert row["status"] == "ok"
        assert row["ir_certification"] == "solver"

    def test_large_instances_certified_by_certificates(self):
        row, failures = certify_family("Hksl", {"k": 8, "s": 6})
        assert failures == []
        assert row["iota_certification"] == "witness+packing"
        assert row["ir_certification"] == "witness-upper+asserted-lower"


# Every instance of the sweep below, with a sha256 digest of all its fields
# (labels in insertion order included) or, for a parameter set the generator
# refuses, of its ParameterError text. 72 sets build and 10 raise.
INSTANCE_DIGESTS = [
    ("G1", {'t': 1, 'k': 1}, "ee9d35c02c9fd85257627e7bd4cb6545857dd6691caa318a9bc331cab6885bb2"),
    ("G1", {'t': 1, 'k': 2}, "1c65742fad74673485157f4032c27fa753d4d75c79c091c9269a4374b84b7d91"),
    ("G1", {'t': 1, 'k': 3}, "f059841b2e64b249978ca2c924a006aad6a7db52697722d43ec3833fed5566e0"),
    ("G1", {'t': 1, 'k': 4}, "1635691ee5ba246eb4aac67c9185923113bd1b746db98757c04d711751ba3f60"),
    ("G1", {'t': 2, 'k': 1}, "8a9246e941dc0c421c29a141298cb10288f54430ffa22be40a1e01519d7223b4"),
    ("G1", {'t': 2, 'k': 2}, "31b7036890082e9c9ae60d81a9a3dd72a8e29f41a000863b79e0a8b99faccd6f"),
    ("G1", {'t': 2, 'k': 3}, "4e913db577757fda918b3e0de989b0f578dc77fe01584def1d0e2cb5ad363d42"),
    ("G1", {'t': 2, 'k': 4}, "bc26cffe26284e3076cfcd90ee3971016e57d21702cc26204dcb3bb2ab775581"),
    ("G1", {'t': 3, 'k': 1}, "c524aaaf974e35066d20aa35d5e41c4e0180fdb051c50431ada060b8339d4414"),
    ("G1", {'t': 3, 'k': 2}, "197c08a3420223ce7b69a037dcbb21fb7d8ebe6fa3bec9dcfd03fe996e4f04a2"),
    ("G1", {'t': 3, 'k': 3}, "d4a5ddf0f3140541c4843c42d7abe4c29a661400ece36269eed3366edbe109e7"),
    ("G1", {'t': 3, 'k': 4}, "6af26bbb31bd931f3faaa07bb1daf44401483ada93730282d4aa6f919af357e2"),
    ("G2", {'t': 1, 'k': 2}, "51296d265cdba7ae8a1e58e0437c88a5fb7916dbf1309f901c5c74a05e646bfb"),
    ("G2", {'t': 1, 'k': 3}, "7244ce98872d56994b827d1c3ebb804a963ca1e9fb70bba42cd46f7ee4c8c323"),
    ("G2", {'t': 1, 'k': 4}, "686b48226ffaca804d46c0b10bf34272e7e15448b3c9fdb1a4f8b5e72ef4ec99"),
    ("G2", {'t': 2, 'k': 2}, "e27e6f51b05340d37ca741d578585ef0f1e94cffabdae7d527e129512c582f02"),
    ("G2", {'t': 2, 'k': 3}, "03d3b570fcab5fb8bccff9c3beab14eb8cf8463adccaa9b555d6e4f6457e3b43"),
    ("G2", {'t': 2, 'k': 4}, "389442d1cc3deff7a2b349f13a15de31367ffdf972a03f60dcc2f0559feb38a0"),
    ("G2", {'t': 3, 'k': 2}, "626f262fda02db634d40fef05d574957133af89878d34ba050baeee0ba762e38"),
    ("G2", {'t': 3, 'k': 3}, "abf0d4310fa7e28917808e6a7bcd43ec2851b8ec4c47fb3881671b11a0e81262"),
    ("G2", {'t': 3, 'k': 4}, "1e1a181b4b6a5b5da2d659e969ecbf0aba1ff82503cbb098b51c9644e301d1b4"),
    ("Gkl", {'k': 6, 'l': 1}, "41ca10a8b1606296f7d2927dba270edf8ca3af6e5fa76b27a6c8ee42209a257f"),
    ("Gkl", {'k': 6, 'l': 2}, "e453ed680b84ba52c611a1b74444f38e05fba9509e837479743892e9d8f703bb"),
    ("Gkl", {'k': 6, 'l': 3}, "57123bf9cd1c9cb3ca08ccf1c4467bec9a6c99aeda2c7162fe81a6383e2667ce"),
    ("Gkl", {'k': 7, 'l': 1}, "f31eb4e2798567e6cfb54ae2ddc3784cbb19ce631b18dd5f020df98a261ae463"),
    ("Gkl", {'k': 7, 'l': 2}, "c988cb9315f060729264f7b2d6bba5cea6824ef17e3aaa99f02c3404415f3b6e"),
    ("Gkl", {'k': 7, 'l': 3}, "cb937c0fb87de4cad0d149dd9e971aa061e734d7b6005fb4f18601e10c291d0b"),
    ("Gkl", {'k': 8, 'l': 1}, "68bb98066b1375671e5eda631a3e14edc303059133fb4a778a4cecd85aec873b"),
    ("Gkl", {'k': 8, 'l': 2}, "f018122df88de70a2fcec04f8e6ae147f0b33a37719cecf76b02df91da48112a"),
    ("Gkl", {'k': 8, 'l': 3}, "137c6124329d0451f981253fd4ec0f5734a276cf512a3ebfca7dfc4b5af32fc1"),
    ("Gkl", {'k': 9, 'l': 1}, "a1bd03f082c3853daa5fc5492d67300121591aa1a02ba74a39c60c37393f21d3"),
    ("Gkl", {'k': 9, 'l': 2}, "bb4bd3783cc4af2e11df14816789608651a60c68b09bba86d4ce1a50df457f85"),
    ("Gkl", {'k': 9, 'l': 3}, "f1b4dbddeada0782987fde903d77b985272012a98254bae30aafdea28383cdda"),
    ("Dkt", {'k': 1, 't': 1}, "77fab9900b419f02aa8c34f2ff2a8a46623bf4cc13918c5499d518897a100408"),
    ("Dkt", {'k': 1, 't': 2}, "260bed32eab739eb75f190263dd15a9828f6295fc473fa5ea290ceada7f201e3"),
    ("Dkt", {'k': 1, 't': 3}, "4c5e097e434b1f7eb5ecc1458657a1c3f69c9b72cbc9127f4f430ff5ff949a63"),
    ("Dkt", {'k': 2, 't': 1}, "d084e32f425fb3bf124b45b50a33fff09db00c5e01c140cf963dd1c4d6bbc1e3"),
    ("Dkt", {'k': 2, 't': 2}, "4f375fadffa15ac91af52fe61bc1b8aa04dc524367659f6cd9f381b2608ea4e5"),
    ("Dkt", {'k': 2, 't': 3}, "2f17c29be82ac8a5267cbbb7f5aa8c0b0776f184bb2a4d124c98d8bf4f5b9f18"),
    ("Dkt", {'k': 3, 't': 1}, "ac0de9a424294192ff63ed75262f61f0aa8dc051f419a1e4920580d81d9f16fc"),
    ("Dkt", {'k': 3, 't': 2}, "0a2362aeee5eeb33d4c90aef2e89ffbf3f17a72198c184b064d788518e582570"),
    ("Dkt", {'k': 3, 't': 3}, "bd1bad1e2a8ddc35671cf6828c79cea53499541ebe993ea2e2364ecd53fa5939"),
    ("subcubicH", {'c': 1}, "97271e7cca951db435d9c9ad51c1aaeb5c1604b1b640d6174970dd8bfb7bcf89"),
    ("subcubicH", {'c': 2}, "8a489f31900b7684e24e4faeb3e37e6725121098acd93cfad32a7f6195b8d5d0"),
    ("subcubicH", {'c': 3}, "cc1c2c736206a4e7ce31d95ea839d743ac5dcd685962e8d14cfacd0147cb9bc8"),
    ("subcubicH", {'c': 4}, "537c904fe7d7ed30bcbe4a3a5cefe0057c08c2dfdcdeed62b38090d9ad5b1abf"),
    ("fivethirds", {}, "f6a62552fe79bb16e8cf7adf5e70b8d7ec81d38fdeb906587e7a6a01fcf8b49a"),
    ("Sk", {'k': 3}, "7592faeab97ea847e14647da7ef4f78ad0d73bb12d2234d117479a1c8daf29b1"),
    ("Sk", {'k': 4}, "25a33ce6ae71ab3f6229e1800bef3b93b43aa0f7636fa239afd5b17b3a064d58"),
    ("Sk", {'k': 5}, "1d38eb8dc1d51c9e735c41c1e50700bdc6adcbf7735f3cfee7c4e7b29ae4fe2b"),
    ("Sk", {'k': 6}, "7309efde32bb4ba506840aeed2d7435712fa5c10afaeec6f844bcd5fbd7df943"),
    ("Fks", {'k': 3, 's': 1}, "c5eaf0cdf8f2355e3978fc99b9fcee004afe82a6888def3f1837eb203e42e617"),
    ("Fks", {'k': 4, 's': 1}, "57312500494b84ef488895d3158e333d841271edc606955ff5e17eef320149c0"),
    ("Fks", {'k': 4, 's': 2}, "3aafef3203a36565faa6e5290fcd8fdbf0712a170f819ef61c8b410ddf3b428e"),
    ("Fks", {'k': 5, 's': 1}, "b7ae0d9b6f6fbc8a0a49f7cc6d896980af449bf8766b276103f004f1a6470525"),
    ("Fks", {'k': 5, 's': 2}, "1f4ad685636deace86c5497a30a289126d6e48ef47427d971e2331634975792b"),
    ("Fks", {'k': 5, 's': 3}, "93141d4bcf20077d3d47dceb7f725324eb88b6e9821f31a616cae187b48346bb"),
    ("Fks", {'k': 6, 's': 1}, "d384752f6c1934363846e7890f85e53db33efe1e53894542a99e29352cc5ac7f"),
    ("Fks", {'k': 6, 's': 2}, "5de1cebc15997ff9960623a5cb74f1b01dabb2f9d315d915d24e021ebf54bb79"),
    ("Fks", {'k': 6, 's': 3}, "bc6ad7ce9b0594d43cd0847e61924f8731de18466fe18a1dd00859105ce991e8"),
    ("Fks", {'k': 6, 's': 4}, "68d35cce13b8b223f1863fc7ca9b655fbec1e00c6e0c28ce56ad80425b449e87"),
    ("Hksl", {'k': 4, 's': 2}, "98a6e68f679589db038856dce833ee2d720c0d726d1864f219abb7c78e9c5f1d"),
    ("Hksl", {'k': 5, 's': 2}, "01bf7356edd84c28ace9a63002ecb6448646d8469dfe314e086982d4622c0240"),
    ("Hksl", {'k': 5, 's': 3}, "115aac5eaec7c6d4eed8cffd0a872883de0c61be475bb9ae6ad186b383490504"),
    ("Hksl", {'k': 6, 's': 2}, "6a44533c1bbca7c531b28a6b8d806be35ade8d145f685dbf8be45063f95430de"),
    ("Hksl", {'k': 6, 's': 3}, "0cdf08f236b3e0d63b240c055d203776e1eb2c04523f2a1354ea5689da40597d"),
    ("Hksl", {'k': 6, 's': 4}, "6168116d84c169ffd42cdd517b366857467c76e679704f67f62643652f3f8b5e"),
    ("Hksl", {'k': 7, 's': 2}, "54e7ec3083d0133bfcdc38b5a090e0e5b79b41f8248a4b3b0f1c6c0eb314066d"),
    ("Hksl", {'k': 7, 's': 3}, "f56a9d94d89473aec4dde7e7c5a4fcb598ce0cc13ce13a00e79bc08fcf677346"),
    ("Hksl", {'k': 7, 's': 4}, "32b999e47a3316139e8d5d9eb2c9109b1009fc75579607be1ae0bf15c876dcde"),
    ("Hksl", {'k': 7, 's': 5}, "ccbbca7d45735307e43dc621b5b431d025e76cf6add9b1c03c66f66efcac54f2"),
    ("Hksl", {'k': 8, 's': 2}, "38ed99a576a73da681a9fa9783a48e30d720ebbf7df8a6f0180d729c95ee23d7"),
    ("Hksl", {'k': 8, 's': 3}, "c8c9706d7824eee4a34afc41bd3691caa91f6bb739353d55f0d2352d2e933026"),
    ("Hksl", {'k': 8, 's': 4}, "7afd36bdc418d4613ecf3e823de97be392f87cd9ee8f20aef9d3a421ea23a231"),
    ("Hksl", {'k': 8, 's': 5}, "2fab15fcc64cfe37aecf515425ec9eae514628f5fdbcbeeb6d350e3c3bc2e9f7"),
    ("Hksl", {'k': 8, 's': 6}, "7dc51d32b665bc82cb2a6ec0a424f1c00fee020ae951e234f45db22a555ee5ec"),
    ("Hksl", {'k': 9, 's': 2}, "4c3c6c6778f0043f78a2e499d220b4733fc1b96218e4ab23cbd02ef202d59423"),
    ("Hksl", {'k': 9, 's': 3}, "a9fd5743087c5c75f8d3d5ed0423e4a23fcc685374781064c00d1be5c0d31c03"),
    ("Hksl", {'k': 9, 's': 4}, "d7c3d4e2ade947e9a6a51bcb9f4393d43ee48856aeb0f146496193a970d32ba9"),
    ("Hksl", {'k': 9, 's': 5}, "19d1ad37f447bc73a3ce26e8cefa8c0ed8d19d9e78df5833b1519be47e190476"),
    ("Hksl", {'k': 9, 's': 6}, "4434079cf95ffc373d54a002aa5a7a7b31d87b20a4c377d2af9af212a6a0893c"),
    ("Hksl", {'k': 9, 's': 7}, "f2d01acb156b3d72a954f27342b6fc2fe97c8be3de5ba12779e9ff9076a2e5a5"),
]


def _instance_digest(name, params):
    try:
        inst = make_instance(name, params)
    except ParameterError as exc:
        text = repr(("ParameterError", str(exc)))
    else:
        text = repr((
            inst.name, list(inst.params.items()), inst.graph.n, inst.graph.adj, inst.k,
            inst.claimed_ir, inst.claimed_gamma, inst.claimed_iota,
            inst.witness_irredundant, inst.witness_isolating, inst.witness_dominating,
            inst.designated_cliques, list(inst.labels.items()),
        ))
    return hashlib.sha256(text.encode()).hexdigest()


class TestInstanceDigests:
    def test_sweep_shape(self):
        assert len(INSTANCE_DIGESTS) == 82
        refused = 0
        for name, params, _digest in INSTANCE_DIGESTS:
            try:
                make_instance(name, params)
            except ParameterError:
                refused += 1
        assert refused == 10

    @pytest.mark.parametrize(
        "name,params,digest",
        INSTANCE_DIGESTS,
        ids=[
            f"{name}({','.join(f'{key}={val}' for key, val in params.items())})"
            for name, params, _digest in INSTANCE_DIGESTS
        ],
    )
    def test_instance_unchanged(self, name, params, digest):
        assert _instance_digest(name, params) == digest
