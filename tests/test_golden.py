"""Golden digests: the exact output bytes of small runs of every scheme.

Each case runs one config through ``run_experiment`` and pins the sha256 of
``history.csv``, ``series.csv``, the JSON of the run's counters and audit
events, and ``manifest.json`` (the resolved config a replay starts from).
A change meant to preserve behaviour must leave every digest as it is; a
change that moves one must re-pin it and say why in CHANGES.md.  The
digests depend on the floating-point build (numpy and its BLAS); CHANGES.md
names the one they were taken on.
"""

import hashlib
import json

import pytest

from basilsim.harness import run_experiment


def base_config(scheme, **overrides):
    cfg = {
        "scheme": scheme,
        "seed": 5,
        "rounds": 3,
        "tau": 2,
        "dataset": {"kind": "synthetic", "samples": 240, "test_samples": 60,
                    "classes": 4, "dim": 6, "separation": 3.0, "seed": 5},
        "ring": {"nodes": 8, "byzantine": 2, "connectivity": 3},
        "groups": {"count": 2},
        "attack": {"kind": "gaussian"},
        "training": {"batch_size": 10},
    }
    cfg.update(overrides)
    return cfg


# 240 samples over 8 nodes: 30 per node, at least the batch size of 10
CONFIGS = {
    "basil": base_config("basil"),
    "basil-plus": base_config("basil-plus"),
    "r-plain": base_config("r-plain"),
    "r-plain-plus": base_config("r-plain-plus"),
    "g-plain": base_config("g-plain"),
    "ubar": base_config("ubar"),
    "basil-b1-s2": base_config("basil", ring={"nodes": 8, "byzantine": 1, "connectivity": 2}),
    "basil-plus-acds-noniid": base_config(
        "basil-plus", partition={"mode": "non-iid"}, attack={"kind": "hidden",
                                                             "activation_round": 1},
        acds={"enabled": True, "alpha": 0.1, "batches": 2, "groups": 2}),
    # no ring.connectivity: the default group connectivity min(n-1, b+1) gives S = 2
    "basil-plus-default-s": base_config("basil-plus", ring={"nodes": 8, "byzantine": 1}),
    "basil-plus-epochs-b0": base_config(
        "basil-plus", ring={"nodes": 8, "byzantine": 0},
        training={"batch_size": 10, "epochs": 2}),
    "basil-plus-epochs-b2": base_config(
        "basil-plus", training={"batch_size": 10, "epochs": 2}),
    # dim 6 and 4 classes give a 6-100-100-4 network
    "basil-mlp": base_config("basil", task={"kind": "mlp-3fc"}),
    "basil-quadratic": base_config(
        "basil", dataset={"kind": "quadratic", "dim": 6, "samples": 240,
                          "noise_scale": 0.5, "seed": 5}),
    # the sign flip draws from its keyed generator; the hidden attack reads
    # the graph round's benign pool
    "basil-sign-flip": base_config("basil", attack={"kind": "random-sign-flip"}),
    "ubar-hidden": base_config("ubar", attack={"kind": "hidden", "activation_round": 1}),
    # the hidden attack is inactive in round 1, so the Byzantine nodes select
    # and step like benign ones, and active from round 2 on
    "basil-hidden": base_config("basil", attack={"kind": "hidden", "activation_round": 2}),
    # the inverse attack reads the honest update and the prior; at connectivity
    # one each node adopts its predecessor's output, so the history reads it too
    "basil-inverse": base_config("basil", ring={"nodes": 8, "byzantine": 2, "connectivity": 1},
                                 attack={"kind": "inverse"}),
    # node 1 is a group-1 tail, so it runs the aggregate stage, and node 2 a
    # group-0 tail, so it runs multicast; the inverse attack reads each
    # stage's pick and update
    "basil-plus-inverse": base_config(
        "basil-plus", ring={"nodes": 8, "byzantine": 2, "byzantine_ids": [1, 2],
                            "connectivity": 3}, attack={"kind": "inverse"}),
    # a Byzantine graph node steps on its own model, and the inverse attack
    # reflects that step
    "g-plain-inverse": base_config("g-plain", attack={"kind": "inverse"}),
    # four groups of four, so the aggregate chain runs through three groups;
    # the hidden attack is active from round 1, so Byzantine ring and
    # aggregate activations skip their pick, and Byzantine head nodes adopt
    "basil-plus-g4-hidden": base_config(
        "basil-plus", ring={"nodes": 16, "byzantine": 3, "connectivity": 2},
        groups={"count": 4}, attack={"kind": "hidden", "activation_round": 1}),
    # a 6-100-100-4 network, so every grouped step goes back through the ReLUs
    "basil-plus-mlp": base_config("basil-plus", task={"kind": "mlp-3fc"}),
}

#: name -> (history.csv, series.csv, counters and events, manifest.json)
GOLDENS = {
    "basil": (
        "b97268ba01e560df88429c51d88c3789f84b5ccfa9453609dbe15be97fab77dd",
        "dc1111f15dd665b12d4a2229997137c9c096362eb7338dd444b866e8ad554815",
        "203998475f76602e4a84bc09b02bd70e656b09ced427eff2d3a48040be28196a",
        "eaf9c6e20cc81a9c41b56dc4d096491e84d0f1d1f8952e1bb8e368e157b697e7",
    ),
    "basil-plus": (
        "b4d98f4d08fe92de63ca02eeab6c8cf01b997cfaf53265f1d3e600756f8f0e4b",
        "22908547b30df34240d61410553a7f8c95304f8a081e8a06df2ae32f5506c113",
        "31960157391d02530b817043a2a97a008a389e2cb51f80eeca8c0431b93898bf",
        "5a23c50577c36aa0e2b0c116b88a7efae63090e05ab18dfab12ed2fb8b0e2da0",
    ),
    "r-plain": (
        "556a2db19c36b8fa1c9d8e2f3ca78929ee4ee532b64dbb49dc3e1cde677959ed",
        "3dbf0e77ccd9f690a107d5133cb6c19148b298f93f818d7e1cdfbf3e2ec54c92",
        "41c4b7b7ca8c113a3c272d54321f5a9fdf4b889803b9debb9598f3d63f4cce57",
        "94f27afe50a63e1ac2073dcef059bb1398d408f278b2bd426ea0b34de041ce34",
    ),
    "r-plain-plus": (
        "ba3b81ae492f70647e7f5608b7c67595155512f794fff59cba6ea032419b975f",
        "c5d33b08ff770b4dce51ad87f0c6738881686781800262a6f095f110a320b22d",
        "6ffef4f460795c8e817a9b024c1b379ecd1f9e563c1bcf42fed91bfa4c35c8a0",
        "0b10c6802df6834b22d5a534e6cf17e0b8fcfe2b3b01979ab8e984d458565bd2",
    ),
    "g-plain": (
        "3c108900b64125fcba0afb67dc8b9eee2dd01ebd9f8b19eb83f28d06b29e9fa4",
        "2ef30ff7d51c581113dab27949f5b7fc6e6ebacb6c9de4c94f43a5c0b6e2a0f8",
        "fe0e5858c7080055155715a060e8163e1e5c9a89b7162fe526ec77b30aa086cd",
        "3104bbc686d2eaf6a0b958d218ddfab7eba98c529ac11e7e858ac54cd184abda",
    ),
    "ubar": (
        "0c4e0228930354021270216cbd8bf20e3476a94a6f51b4099c33b87a56ee95d1",
        "7a088645ad0f16394666069d0dc327175617d4da704b67430e8524b0de0d9994",
        "fe0e5858c7080055155715a060e8163e1e5c9a89b7162fe526ec77b30aa086cd",
        "30149c38ae0b61919ab37e5f18e282b48545a4045dc09296949cdf6444d89604",
    ),
    "basil-b1-s2": (
        "b787e279acf1050414c1636eed97174ade06a2169f9c0199c3272dba42b8e4ed",
        "8e593a707efa28c5cbe07243cd21c2277e9e984ef2a41068845e185b2be69712",
        "90863c899179adb7e3f1c37914441f1dec1596db7fbc7eb98ef1b600eb26281e",
        "6130b3b264da53afa49019c6cdcccbd9dddc11c8be8e016c0c63e47bf5e61487",
    ),
    "basil-plus-acds-noniid": (
        "d3c02e30f96c72016079a38696fe847544642dee564a76b04afb928981993e90",
        "3d788a1c9121ce45dfee817287afea144c0fcba97299c4f78684b52834b30cb8",
        "08ba0d938d13f671f0755eb607e54a04eea21b7b697b68bb70511753b1a3d485",
        "1c0b9b8910c54de2c67baa5688e90b5acb0603f7672e09c5269aacd73c40e4b6",
    ),
    "basil-plus-default-s": (
        "ba403998383ae81be3c8556e2061c39277de974ba8d169e9aa1136c174f13d00",
        "29c908cbb960f1cab29a3512cae1b71aa9852332f1dc484b7dd395ea772d2718",
        "0d83836abf7b62afd7fe0810a25a941f2e2c48b61bca6946ca8e8954a915e02c",
        "d424d7c029060cebb201f2446d1fcf82fe1b06c41ce698fe8f4d1ffc7e3670d0",
    ),
    "basil-plus-epochs-b0": (
        "7cfea9c7bda0fba7071eb0fef61711572cf5cc2b6330f873d193200e141ee84f",
        "8ed5dd8cb2f0fa6504e2997c85ec2ab3586e3563b827d827063c0135e50abd57",
        "f008df8c4933f39261eac15c52ecb2f310d146fb1a3b24540e22f1567c3a6c20",
        "6d6af868a55ad08187729302d4f3e4ff425bf2c48e70f33662df9c8a5a2ffa28",
    ),
    "basil-plus-epochs-b2": (
        "1a8698dab0d75d4da52f7e3c0f61ebd9130a011d8e59ca1091584f905e0dcbbf",
        "326e0334595161aa22ca73ae27062e732915064defa659cf1a4aa61f18fed863",
        "f044aa49e306e2f6d6363ec5b78699536cab2234f4ce1bf353c0fecf476971e0",
        "c509d8a04623230149376a901b6b739b01375198de37024168955287bf04190b",
    ),
    "basil-mlp": (
        "b6a9643c71d7fe1d8b388e32920598d3f58f1ac8f2466875cdb4723094c4189b",
        "a4208e2dfe0dec374d529c2b72c9353bf693bd4527759305dad8f0b4830c0a70",
        "203998475f76602e4a84bc09b02bd70e656b09ced427eff2d3a48040be28196a",
        "3a5b46f8c8586ce2e364c58006920f3968e2a3cb79e0a8607c86a8c7e4650c7d",
    ),
    "basil-quadratic": (
        "3f9fb34793a92c4091897aa030b260e8864852f4b0539e6e2e5f10c0110ddaef",
        "98bf799a85364519d211e73e198b826778eca32614dc96d74027116f07369478",
        "203998475f76602e4a84bc09b02bd70e656b09ced427eff2d3a48040be28196a",
        "7cc720dc48beb9d6e20cad2b249e092044fba2dd7ebf8538bde5c6b560a29fd6",
    ),
    "basil-sign-flip": (
        "4ec414899e7e19c63f8db00591ea75944771dd1396b2d65c6dddcd4631bb44f9",
        "725db22a3e9a199d888be228bccb984f4a56b5f336b9c23c4d745704123b16bf",
        "6deaee9c61f822a50efdc777ae7a94c80da7747f295c78ababb2b9670a294bb8",
        "7d9704749c567801882982b00dd076c96cbdae7300336cdd72f96f59221f2223",
    ),
    "ubar-hidden": (
        "20dc32708e2158fed3f21570510b8ef0d4cf7acef2e6181966c22bf69e0b91f9",
        "7a088645ad0f16394666069d0dc327175617d4da704b67430e8524b0de0d9994",
        "fe0e5858c7080055155715a060e8163e1e5c9a89b7162fe526ec77b30aa086cd",
        "85df76e86c88ffc24bda3ee6a2d386d66847017f0f75accd0fb1a2e71b1bee67",
    ),
    "basil-hidden": (
        "772a728ca188d37c87a7542b7504ec8659d1d779314c5f799b40dc1088cf3609",
        "9355e4394c289efcbef8cb5f45ff23add8c15288ba48f5fb1fbd8f27613685d2",
        "ec0b79b5f79cea77fb01d62ad9e14980f07e48c1ca06b1d5654f633792e749ba",
        "77f75f1fd89f77b50028df45a041c00a636e56363b555abf48a93d8cbf185231",
    ),
    "basil-inverse": (
        "b303fd33a6bddfbf52857d7be5bbc97e8b7e79608e54fe1a6983ed551746aef6",
        "216dcd31b6e811b38e8043b7442199ec782cc4ef6cef5ed55a60e83dd4624878",
        "ad4c9193bc2e5f30bdf908397061eae3274c3c12e25fa5570548d6182dfd7055",
        "4be85098904d9b1cc262b98986809e161ec67277ab598a186a2d169981f839cc",
    ),
    "basil-plus-inverse": (
        "2524dfcb43e0341e704a02ce08d5588bca61e480cec94122ee7be8e670691880",
        "f7e73c29c9856b658bb5c2995464c2b9758755a565cbcc1e600605b06db9a618",
        "ebde78e71ad204e0d61416c5cecbde48b8d0ad59f3aa91f5e77cc194229e9a19",
        "bd71bb57751079574095b2bde164f0843b138d35aa033691f7ec8dee96914683",
    ),
    "g-plain-inverse": (
        "3266c3304c8de490bc772f52f213d01b3bfcfa86030b7e29c8e9802668bd18cd",
        "f67a1c896de89241a50e1a5d67a476da076ca7db9eec874f78f07e0cb543c116",
        "fe0e5858c7080055155715a060e8163e1e5c9a89b7162fe526ec77b30aa086cd",
        "693d7baa41226c46f2ebb09427f2a04dcac13629e454242c314dfe9a93fc704c",
    ),
    "basil-plus-g4-hidden": (
        "9a7d8f1f7e32039ac9398b7f9b1141be107c173f556738198a9fd0c93d4a9d2a",
        "5fb4f667fed1825cff761ed2e146ace11f18ca4600649e9eab23b3aeebc72fe3",
        "2fd6752a93f7b4fbc7713badaaa1ce9501a40ec0c6f73128b87016b7091e7696",
        "5cd8b6a0798ee1d4a14a28e05ef92fe473967907fa7b999a0ae5e6ab60994539",
    ),
    "basil-plus-mlp": (
        "473c664cc61b8ddbe285722eb586a515d22932a1c44991b550d48d607d7e5f22",
        "a478152d2f8823bab91a7a87e6663989c406540133057acd7352067ecfceb9f9",
        "59860cf972ba5ddf13fa18e5033188de7673f8d98f7f93c0965818f9e9f9fe41",
        "d5308fd3a00ec7e5451f001bf4146fd4f0fa31912616a5a39276ec51ab149f13",
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(cfg, out_dir) -> tuple[str, str, str, str]:
    result = run_experiment(cfg, out_dir)
    state = json.dumps({"counters": result.history.counters,
                        "events": result.history.events}, sort_keys=True)
    return (_sha256(result.csv_path.read_bytes()),
            _sha256(result.series_path.read_bytes()),
            _sha256(state.encode()),
            _sha256(result.manifest_path.read_bytes()))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_digests(name, tmp_path):
    history, series, state, manifest = run_digests(CONFIGS[name], tmp_path)
    want_history, want_series, want_state, want_manifest = GOLDENS[name]
    assert history == want_history, "history.csv moved"
    assert series == want_series, "series.csv moved"
    assert state == want_state, "counters or events moved"
    assert manifest == want_manifest, "manifest.json moved"
