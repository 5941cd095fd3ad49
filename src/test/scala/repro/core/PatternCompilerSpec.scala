package repro.core

import repro.SparkSpec
import Ast._

class PatternCompilerSpec extends SparkSpec with EngineFixture {

  private def pat(src: String): EventPat =
    Parser.parse(s"$src\nreturn p").asInstanceOf[MultiEventQuery].events.head

  private def matchCount(src: String): Long =
    fixtureDf.filter(PatternCompiler.compile(pat(src))).count()

  test("operation and object type are always constrained") {
    assert(matchCount("proc p start proc q as e") == 3)
    assert(matchCount("proc p write file f as e") == 3)
    assert(matchCount("proc p connect ip i as e") == 1)
  }

  test("default-attribute LIKE filter on subject") {
    assert(matchCount("proc p[\"%osql.exe\"] write file f as e") == 3)
    assert(matchCount("proc p[\"%cmd.exe\"] start proc q as e") == 3)
  }

  test("exact equality filter (no wildcard)") {
    assert(matchCount("proc p[\"osql.exe\"] write file f as e") == 3)
    assert(matchCount("proc p[\"osql\"] write file f as e") == 0)
  }

  test("object filters resolve in object role") {
    assert(matchCount("proc p start proc q[\"%osql.exe\"] as e") == 2)
    assert(matchCount("proc p write file f[\"%backup.dmp\"] as e") == 2)
  }

  test("attribute comparison filters") {
    assert(matchCount("proc p write ip i[dst_port = 443] as e") == 2)
    assert(matchCount("proc p write ip i[dst_port = 80] as e") == 0)
  }

  test("conjunction and disjunction in filters") {
    assert(matchCount(
      "proc p write ip i[dst_ip = \"9.9.9.9\" && dst_port = 443] as e") == 2)
    assert(matchCount(
      "proc p[\"%sbblv%\" ] write ip i[dst_port = 443 || dst_port = 80] as e") == 1)
  }

  test("negation in filters") {
    assert(matchCount("proc p[!(exe_name = \"%osql%\")] write file f as e") == 0)
    assert(matchCount("proc p write file f[!(name = \"%backup%\")] as e") == 1)
  }

  test("event-variable self-reference adds identity predicate") {
    assert(matchCount("proc p start proc p as e") == 0)
  }

  test("numeric comparison on pid") {
    assert(matchCount("proc p[pid >= 30] write ip i as e") == 2)
    assert(matchCount("proc p[pid < 30] write ip i as e") == 0)
  }

  test("filters referencing another variable are rejected") {
    val e = pat("proc p[pid = 1] read file f as evt").copy(
      subj = EntityPat("proc", "p", Some(Bin("=", AttrRef("other", "pid"), NumLit("1")))))
    assertThrows[PatternCompiler.CompileError](PatternCompiler.compile(e))
  }

  test("global predicate: time window") {
    val pred = PatternCompiler.globalPred(Seq(TimeAt("08/01/2023")))
    assert(fixtureDf.filter(pred).count() == fixtureDf.count())
    val pred2 = PatternCompiler.globalPred(
      Seq(TimeFromTo("08/01/2023 00:00:01", "08/01/2023 00:00:02")))
    assert(fixtureDf.filter(pred2).count() == 3) // ts 1000, 1100, 1500
  }

  test("global predicate: agents") {
    val pred = PatternCompiler.globalPred(Seq(AgentIn(Seq(2))))
    assert(fixtureDf.filter(pred).count() == 3)
  }

  test("global predicate: empty globals select everything") {
    assert(fixtureDf.filter(PatternCompiler.globalPred(Nil)).count() == fixtureDf.count())
  }
}
