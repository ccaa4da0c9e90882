"""The reports of scripts/report_digests.py, pinned byte for byte.

Every report is deterministic, so a change that keeps these digests
keeps every report of the list byte-identical.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "report_digests.py"

PINNED = [
    ("504b317e938f6be50df8d01716e6a5dcf1572d295a853bba98d0cf9bc3941f20", 0),
    ("8592c12e5c2889ad234f87914f487373f056f55ff1ec9690679066fd4e04be77", 0),
    ("7c34f904f758b7975bc2241d9761661af1ecc914a35d3e5804f8c6ca7203649e", 0),
    ("0927721533ed602b4fb375c4c6f6471b7361ba2f10ad2840c42ebbc5fb09420a", 0),
    ("eae20b4117fa99cbfbfa7bc4ac013dc1556a354eee324599b0f31b37d1f38218", 0),
    ("8e6163580dd1125eb5d9c6f2f1ee9a96af93b67bd8f42ef9a0f17a1720cc9971", 0),
    ("c2a71cc8e3e8b4294034d6de49e9bd4480ec3353cdab68b6c8107ac3a9b02ed3", 0),
    ("f1d4731a3900dada5b8142aba0de6395c9edadf2044209b4390b25e4d32199ad", 0),
    ("ef544e2af3fa162f9a538a306f092a1888f347432c8e8a6caa4739880f8b90a5", 0),
    ("ecc4108e238530c07a092b587020945d9949a333ecfdfc913a9fc23cd3e73e1f", 0),
    ("17181ac10dac93e5009be36e1b203bd3f175e73409e37f2cb3cdaf3678936227", 0),
    ("5952b193c038b4eba0376f640f7ea7e0d3d45a3d6897e73c540fd994e15abbd4", 0),
    ("36dde66a9ba37cadffa6c6cb4a4c40cf1b244e93b4452670c0c82c7b615ba236", 0),
    ("7b24a3708395b85f618584fac031c8e1740dabf2a6643d5e7d99ccf5fa335970", 0),
    ("8dacc92b97027e617e76810786b29846588ba0d33ebcc84492dbe863a3fbbdf1", 0),
    ("7280945178b0920c46cfd4e3bda793dff8953f21033e4ec2c82195d79d6c1e32", 0),
    ("e64a8c38a38eec2207f806b47accbad991bdb6e91e6c1142a907e9ebfcf5aeee", 0),
    ("30529574a131e87b0b88de0fb55bd86e3b445cc57de77debd118ca4921168388", 0),
    ("439af9ab559b08b957095fc3b7ba97b3237d9e05556070d9ca947cf9caf14638", 0),
    ("0069a9153a0163519a6b191888a8cfbe39b13cbeb318e79ef37a007099f8c2db", 0),
    ("d78032e2f67d99f46e03d65cc6cf75aba3a4985cdb630269985e472f74d04bff", 0),
    ("21759a5a71fb21576621b93008c7ff0fdd9e8c9507a8e1aedbaba93b8c07933e", 0),
    ("275f1a61a20722c2dec91f1c527e5a4cc677b5d7efbee7790d2b7f2d9ab535be", 0),
    ("6128103f7b0e91ef7e2de94267fea52ad1805a9f3ef181d3927569d6d52cd70a", 0),
    ("e50fc4d9484f4cd2feb7a51510b97b994ef15ea332ccb563c2a80f07f69a1def", 0),
    ("93be2bfdccd64e6528ea785c4e0732ece0610befcd5530cc992c547498d81259", 0),
    ("b46d9d11ad6d36cc7226774b433a97d4bcd04229ec6ff50462f5100e9f851e78", 0),
    ("17940eebeaecc97394aae2d25ba8ae29c0afc1dd23f310b6c67306b63d6848ae", 0),
    ("7a16f8f06c20d85baba9a1df381d4bb4e9efc2e4c3c92bee10ec60753d1c6638", 0),
    ("92535cb8d894296f5c1e2b7bf0aec2babdccdf1db5d57e981afe87858654160d", 0),
]


def test_report_digests_are_pinned():
    spec = importlib.util.spec_from_file_location("report_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    got = module.digests()
    assert len(got) == len(PINNED)
    for (digest, code, call), want in zip(got, PINNED):
        assert (digest, code) == want, " ".join(call)
