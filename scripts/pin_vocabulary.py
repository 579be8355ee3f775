#!/usr/bin/env python3
"""Regenerate the vendored vocabulary snapshot and its pinned statistics.

The snapshot is a curated subset of the schema.org vocabulary written in the
publisher's dump shape (top-level ``@graph`` array of term objects).  Class
and property relations are transcribed from schema.org; domains and ranges
are trimmed to terms present in the subset, never widened.  The subset
covers the event / lodging / local-business domains plus the generic Thing,
CreativeWork, Offer, Rating and structured-value machinery.

Running this script rewrites:

    src/sdocheck/data/schemaorg.jsonld
    src/sdocheck/data/snapshot_stats.json   (counts recorded at pin time)

and then reloads the result through sdocheck.vocab to prove the pinned file
satisfies every loader invariant.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DATA_DIR = REPO / "src" / "sdocheck" / "data"

# name -> superclasses (transcribed from schema.org)
CLASSES = {
    "Thing": [],
    "CreativeWork": ["Thing"],
    "MediaObject": ["CreativeWork"],
    "ImageObject": ["MediaObject"],
    "WebPage": ["CreativeWork"],
    "Review": ["CreativeWork"],
    "Event": ["Thing"],
    "Festival": ["Event"],
    "MusicEvent": ["Event"],
    "Intangible": ["Thing"],
    "StructuredValue": ["Intangible"],
    "ContactPoint": ["StructuredValue"],
    "PostalAddress": ["ContactPoint"],
    "GeoCoordinates": ["StructuredValue"],
    "OpeningHoursSpecification": ["StructuredValue"],
    "QuantitativeValue": ["StructuredValue"],
    "Offer": ["Intangible"],
    "AggregateOffer": ["Offer"],
    "Rating": ["Intangible"],
    "AggregateRating": ["Rating"],
    "Quantity": ["Intangible"],
    "Service": ["Intangible"],
    "VirtualLocation": ["Intangible"],
    "Language": ["Intangible"],
    "Enumeration": ["Intangible"],
    "StatusEnumeration": ["Enumeration"],
    "EventStatusType": ["StatusEnumeration"],
    "ItemAvailability": ["Enumeration"],
    "DayOfWeek": ["Enumeration"],
    "EventAttendanceModeEnumeration": ["Enumeration"],
    "Organization": ["Thing"],
    "LocalBusiness": ["Organization", "Place"],
    "LodgingBusiness": ["LocalBusiness"],
    "Hotel": ["LodgingBusiness"],
    "FoodEstablishment": ["LocalBusiness"],
    "Restaurant": ["FoodEstablishment"],
    "Person": ["Thing"],
    "Place": ["Thing"],
    "Accommodation": ["Place"],
    "TouristAttraction": ["Place"],
    "AdministrativeArea": ["Place"],
    "Country": ["AdministrativeArea"],
    "Product": ["Thing"],
}

# datatype name -> superclasses as declared by the publisher (kept for shape
# fidelity; the loader recognizes datatypes by name)
DATATYPES = {
    "Text": [],
    "Number": [],
    "Boolean": [],
    "Date": [],
    "DateTime": [],
    "Time": [],
    "URL": ["Text"],
    "Integer": ["Number"],
    "Float": ["Number"],
    "Duration": ["Quantity"],
}

# enumeration class -> members
ENUM_MEMBERS = {
    "ItemAvailability": [
        "BackOrder", "Discontinued", "InStock", "InStoreOnly",
        "LimitedAvailability", "OnlineOnly", "OutOfStock", "PreOrder",
        "PreSale", "SoldOut",
    ],
    "DayOfWeek": [
        "Monday", "Tuesday", "Wednesday", "Thursday", "Friday",
        "Saturday", "Sunday", "PublicHolidays",
    ],
    "EventStatusType": [
        "EventCancelled", "EventMovedOnline", "EventPostponed",
        "EventRescheduled", "EventScheduled",
    ],
    "EventAttendanceModeEnumeration": [
        "MixedEventAttendanceMode", "OfflineEventAttendanceMode",
        "OnlineEventAttendanceMode",
    ],
}

# property -> (domainIncludes, rangeIncludes), trimmed to subset terms
PROPERTIES = {
    "name": (["Thing"], ["Text"]),
    "alternateName": (["Thing"], ["Text"]),
    "description": (["Thing"], ["Text"]),
    "url": (["Thing"], ["URL"]),
    "image": (["Thing"], ["ImageObject", "URL"]),
    "identifier": (["Thing"], ["Text", "URL"]),
    "sameAs": (["Thing"], ["URL"]),
    "additionalType": (["Thing"], ["Text", "URL"]),
    "mainEntityOfPage": (["Thing"], ["CreativeWork", "URL"]),
    "subjectOf": (["Thing"], ["CreativeWork", "Event"]),
    "startDate": (["Event"], ["Date", "DateTime"]),
    "endDate": (["Event"], ["Date", "DateTime"]),
    "doorTime": (["Event"], ["DateTime", "Time"]),
    "duration": (["Event", "MediaObject"], ["Duration"]),
    "eventStatus": (["Event"], ["EventStatusType"]),
    "eventAttendanceMode": (["Event"], ["EventAttendanceModeEnumeration"]),
    "location": (["Event", "Organization"],
                 ["Place", "PostalAddress", "Text", "VirtualLocation"]),
    "organizer": (["Event"], ["Organization", "Person"]),
    "performer": (["Event"], ["Organization", "Person"]),
    "attendee": (["Event"], ["Organization", "Person"]),
    "superEvent": (["Event"], ["Event"]),
    "subEvent": (["Event"], ["Event"]),
    "maximumAttendeeCapacity": (["Event", "Place"], ["Integer"]),
    "isAccessibleForFree": (["CreativeWork", "Event", "Place"], ["Boolean"]),
    "typicalAgeRange": (["CreativeWork", "Event"], ["Text"]),
    "offers": (["CreativeWork", "Event", "Product", "Service"], ["Offer"]),
    "price": (["Offer"], ["Number", "Text"]),
    "priceCurrency": (["Offer"], ["Text"]),
    "availability": (["Offer"], ["ItemAvailability"]),
    "validFrom": (["Offer", "OpeningHoursSpecification"], ["Date", "DateTime"]),
    "validThrough": (["Offer", "OpeningHoursSpecification"], ["Date", "DateTime"]),
    "priceValidUntil": (["Offer"], ["Date"]),
    "itemOffered": (["Offer"], ["Event", "Product", "Service"]),
    "seller": (["Offer"], ["Organization", "Person"]),
    "offerCount": (["AggregateOffer"], ["Integer"]),
    "lowPrice": (["AggregateOffer"], ["Number", "Text"]),
    "highPrice": (["AggregateOffer"], ["Number", "Text"]),
    "address": (["GeoCoordinates", "Organization", "Person", "Place"],
                ["PostalAddress", "Text"]),
    "streetAddress": (["PostalAddress"], ["Text"]),
    "addressLocality": (["PostalAddress"], ["Text"]),
    "addressRegion": (["PostalAddress"], ["Text"]),
    "postalCode": (["PostalAddress"], ["Text"]),
    "addressCountry": (["GeoCoordinates", "PostalAddress"], ["Country", "Text"]),
    "telephone": (["ContactPoint", "Organization", "Person", "Place"], ["Text"]),
    "email": (["ContactPoint", "Organization", "Person"], ["Text"]),
    "geo": (["Place"], ["GeoCoordinates"]),
    "latitude": (["GeoCoordinates", "Place"], ["Number", "Text"]),
    "longitude": (["GeoCoordinates", "Place"], ["Number", "Text"]),
    "openingHours": (["LocalBusiness"], ["Text"]),
    "openingHoursSpecification": (["Place"], ["OpeningHoursSpecification"]),
    "dayOfWeek": (["OpeningHoursSpecification"], ["DayOfWeek"]),
    "opens": (["OpeningHoursSpecification"], ["Time"]),
    "closes": (["OpeningHoursSpecification"], ["Time"]),
    "priceRange": (["LocalBusiness"], ["Text"]),
    "checkinTime": (["LodgingBusiness"], ["DateTime", "Time"]),
    "checkoutTime": (["LodgingBusiness"], ["DateTime", "Time"]),
    "petsAllowed": (["Accommodation", "LodgingBusiness"], ["Boolean", "Text"]),
    "numberOfRooms": (["Accommodation", "LodgingBusiness"],
                      ["Number", "QuantitativeValue"]),
    "starRating": (["FoodEstablishment", "LodgingBusiness"], ["Rating"]),
    "servesCuisine": (["FoodEstablishment"], ["Text"]),
    "review": (["CreativeWork", "Event", "Offer", "Organization", "Place",
                "Product", "Service"], ["Review"]),
    "reviewRating": (["Review"], ["Rating"]),
    "reviewBody": (["Review"], ["Text"]),
    "itemReviewed": (["AggregateRating", "Review"], ["Thing"]),
    "aggregateRating": (["CreativeWork", "Event", "Offer", "Organization",
                         "Place", "Product", "Service"], ["AggregateRating"]),
    "ratingValue": (["Rating"], ["Number", "Text"]),
    "bestRating": (["Rating"], ["Number", "Text"]),
    "worstRating": (["Rating"], ["Number", "Text"]),
    "ratingCount": (["AggregateRating"], ["Integer"]),
    "reviewCount": (["AggregateRating"], ["Integer"]),
    "author": (["CreativeWork", "Rating"], ["Organization", "Person"]),
    "datePublished": (["CreativeWork"], ["Date", "DateTime"]),
    "dateModified": (["CreativeWork"], ["Date", "DateTime"]),
    "headline": (["CreativeWork"], ["Text"]),
    "inLanguage": (["CreativeWork", "Event"], ["Language", "Text"]),
    "keywords": (["CreativeWork", "Event", "Organization", "Place", "Product"],
                 ["Text", "URL"]),
    "thumbnailUrl": (["CreativeWork"], ["URL"]),
    "contentUrl": (["MediaObject"], ["URL"]),
    "caption": (["ImageObject"], ["Text"]),
    "givenName": (["Person"], ["Text"]),
    "familyName": (["Person"], ["Text"]),
    "jobTitle": (["Person"], ["Text"]),
    "birthDate": (["Person"], ["Date"]),
    "worksFor": (["Person"], ["Organization"]),
    "knowsLanguage": (["Person"], ["Language", "Text"]),
    "nationality": (["Person"], ["Country"]),
    "containedInPlace": (["Place"], ["Place"]),
    "containsPlace": (["Place"], ["Place"]),
    "smokingAllowed": (["Place"], ["Boolean"]),
    "publicAccess": (["Place"], ["Boolean"]),
    "minValue": (["QuantitativeValue"], ["Number"]),
    "maxValue": (["QuantitativeValue"], ["Number"]),
    "value": (["QuantitativeValue"], ["Boolean", "Number", "StructuredValue", "Text"]),
    "unitCode": (["QuantitativeValue"], ["Text", "URL"]),
    "unitText": (["QuantitativeValue"], ["Text"]),
    "sku": (["Offer", "Product"], ["Text"]),
    "logo": (["Organization", "Place", "Product", "Service"],
             ["ImageObject", "URL"]),
    "legalName": (["Organization"], ["Text"]),
    "foundingDate": (["Organization"], ["Date"]),
    "numberOfEmployees": (["Organization"], ["QuantitativeValue"]),
    "makesOffer": (["Organization", "Person"], ["Offer"]),
    "memberOf": (["Organization", "Person"], ["Organization"]),
    "contactPoint": (["Organization", "Person"], ["ContactPoint"]),
    "contactType": (["ContactPoint"], ["Text"]),
    "availableLanguage": (["ContactPoint", "LodgingBusiness", "TouristAttraction"],
                          ["Language", "Text"]),
    "touristType": (["TouristAttraction"], ["Text"]),
    "provider": (["CreativeWork", "Service"], ["Organization", "Person"]),
    "serviceType": (["Service"], ["Text"]),
}


def _refs(names):
    refs = [{"@id": f"schema:{n}"} for n in names]
    return refs[0] if len(refs) == 1 else refs


def build_graph() -> list[dict]:
    graph = []
    for name, supers in sorted(CLASSES.items()):
        term = {"@id": f"schema:{name}", "@type": "rdfs:Class"}
        if supers:
            term["rdfs:subClassOf"] = _refs(sorted(supers))
        graph.append(term)
    for name, supers in sorted(DATATYPES.items()):
        if supers:
            term = {"@id": f"schema:{name}", "@type": "rdfs:Class",
                    "rdfs:subClassOf": _refs(supers)}
        else:
            term = {"@id": f"schema:{name}",
                    "@type": ["rdfs:Class", "schema:DataType"]}
        graph.append(term)
    for enum_class, members in sorted(ENUM_MEMBERS.items()):
        for member in sorted(members):
            graph.append({"@id": f"schema:{member}",
                          "@type": f"schema:{enum_class}"})
    for name, (domains, ranges) in sorted(PROPERTIES.items()):
        graph.append({
            "@id": f"schema:{name}",
            "@type": "rdf:Property",
            "schema:domainIncludes": _refs(sorted(domains)),
            "schema:rangeIncludes": _refs(sorted(ranges)),
        })
    return graph


def main() -> int:
    dump = {
        "@context": {
            "schema": "https://schema.org/",
            "rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
            "rdfs": "http://www.w3.org/2000/01/rdf-schema#",
        },
        "@graph": build_graph(),
    }
    snapshot_path = DATA_DIR / "schemaorg.jsonld"
    snapshot_bytes = (json.dumps(dump, indent=2, ensure_ascii=False) + "\n").encode()
    snapshot_path.write_bytes(snapshot_bytes)

    sys.path.insert(0, str(REPO / "src"))
    from sdocheck import vocab

    graph = vocab.load_vocabulary(snapshot_bytes)
    stats = {
        "snapshot_id": graph.snapshot_id,
        "class_count": len(graph.classes),
        "property_count": len(graph.properties),
        "datatype_count": len(graph.datatypes),
        "enumeration_count": sum(1 for name in graph.classes
                                 if graph.is_enumeration(name)),
        "member_count": sum(len(enumerations) for enumerations
                            in graph.member_enumerations.values()),
    }
    stats_path = DATA_DIR / "snapshot_stats.json"
    stats_path.write_text(json.dumps(stats, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {snapshot_path.relative_to(REPO)}")
    print(f"wrote {stats_path.relative_to(REPO)}")
    for key, value in stats.items():
        print(f"  {key}: {value}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
