"""sdocheck: verify schema.org annotations, validate them against page content.

Typical flow:

    from sdocheck import vocab, annotation, sdo_verifier, ds, content, report

    graph_vocab = vocab.load_default_vocabulary()
    blocks = annotation.extract_annotation_blocks(html, base_url)
    parsed, findings = annotation.parse_annotation(blocks[0])
    findings += sdo_verifier.verify_schema_org(parsed, graph_vocab)
"""

__version__ = "0.1.0"
